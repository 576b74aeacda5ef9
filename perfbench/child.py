"""One benchmark round: `lowpansim run` on each scenario, in this process.

Usage: child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start-up and imports.  The spec names the scenarios, the mode
and where to write the report:

- "time":  run every scenario through lowpansim.cli.main;
- "setup": stop at the first simulation, once scenarios are loaded and
  validated and the topology is parsed;
- "trace": like "time", with the per-layer tracer of layers.py installed.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised at the first simulation of a set-up probe."""


def main(spec_path, spawned_at):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from lowpansim import cli, harness

    report = {"lowpansim": harness.__file__, "setup_s": None,
              "exit_codes": []}
    simulate = harness.run_one

    def first_simulation(*args, **kwargs):
        if report["setup_s"] is None:
            report["setup_s"] = time.monotonic() - spawned_at
            if spec["mode"] == "setup":
                raise SetupDone
        return simulate(*args, **kwargs)

    harness.run_one = first_simulation

    tracer = None
    if spec["mode"] == "trace":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.profile.enable()
    try:
        for scenario, out in spec["scenarios"]:
            report["exit_codes"].append(
                cli.main(["run", "--scenario", scenario, "--out", out]))
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            tracer.profile.disable()
    report["done_s"] = time.monotonic() - spawned_at
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
