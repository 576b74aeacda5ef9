"""Command line front end: topology generation, runs, aggregation."""

import argparse
import json
import sys
from pathlib import Path

from .harness import (ScenarioError, aggregate_runs, load_scenario,
                      read_run_file, run_experiment)
from .topology import (GenerationError, TopologyFileError, find_topology,
                       grid_office_plan, save_topology)


def _cmd_generate(args):
    plan = grid_office_plan(seed=args.plan_seed)
    topo, seed = find_topology(plan, start_seed=args.start_seed)
    save_topology(topo, args.out)
    print("wrote %s: %d members, sink %d, max %d hops, sampling seed %d"
          % (args.out, len(topo.members), topo.sink,
             max(topo.hop_distance.values()), seed))
    return 0


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, not %r" % text)
    return int(text)


def _cmd_run(args):
    scenario = load_scenario(args.scenario)
    paths, agg = run_experiment(scenario, args.out, args.jobs)
    for payload, entry in sorted(agg["per_payload"].items(),
                                 key=lambda kv: int(kv[0])):
        print("payload %s: %d fragment(s), mean pdr %.3f over %d run(s)"
              % (payload, entry["frag_count"], entry["pdr_mean"],
                 agg["runs"]))
    print("violations: %d" % agg["violations"])
    for path in paths:
        print(path)
    return 0 if agg["violations"] == 0 else 1


def _cmd_aggregate(args):
    agg = aggregate_runs([read_run_file(p) for p in args.runs])
    text = json.dumps(agg, sort_keys=True, indent=1) + "\n"
    Path(args.out).write_text(text)
    print(args.out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lowpansim",
        description="Fragment forwarding simulator for lossy multihop "
                    "low-power networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-topology",
                         help="sample a 50-node routing tree from the "
                              "synthetic floor plan")
    gen.add_argument("--out", required=True)
    gen.add_argument("--plan-seed", type=int, default=0)
    gen.add_argument("--start-seed", type=int, default=0)
    gen.set_defaults(fn=_cmd_generate)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out", required=True,
                     help="directory for run metrics and aggregate.json")
    run.add_argument("--jobs", type=_positive_int, default=None,
                     help="worker processes for the simulations (default: "
                          "every usable CPU); output does not depend on it")
    run.set_defaults(fn=_cmd_run)

    agg = sub.add_parser("aggregate", help="fold run metrics files")
    agg.add_argument("--out", required=True)
    agg.add_argument("runs", nargs="+")
    agg.set_defaults(fn=_cmd_aggregate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, GenerationError, TopologyFileError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
