"""CLI behavior: exit codes, output files, fixture reproduction."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lowpansim
from lowpansim.cli import main
from lowpansim.harness import (MAX_WAIT_US, STUDY_PAYLOADS, _render_run,
                               read_run_file)
from lowpansim.node_stack import STRATEGIES
from lowpansim.topology import save_topology

from test_harness import line_topology, write_scenario
from test_topology import NEGATIVE_ID


def test_generate_topology_reproduces_the_packaged_fixture(tmp_path, capsys):
    out = tmp_path / "net.txt"
    assert main(["generate-topology", "--out", str(out)]) == 0
    assert "50 members" in capsys.readouterr().out
    packaged = (resources.files("lowpansim.data") / "topology50.txt")
    assert out.read_bytes() == packaged.read_bytes()


# 1232 bytes make 14 fragments: JSON keys "14" and "2" sort as text.
@pytest.mark.parametrize("payloads", ([80, 272], [80, 1232]),
                         ids=("80-272", "80-1232"))
def test_run_and_aggregate_commands(tmp_path, capsys, payloads):
    scn = write_scenario(tmp_path, line_topology(5), payloads=payloads,
                         seeds=[1, 2])
    outdir = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(outdir)]) == 0
    text = capsys.readouterr().out
    assert "payload 80: 2 fragment(s), mean pdr 1.000 over 2 run(s)" in text
    assert "violations: 0" in text
    runs = sorted(str(p) for p in outdir.glob("run-*.txt"))
    assert len(runs) == 2

    agg2 = tmp_path / "agg2.json"
    assert main(["aggregate", "--out", str(agg2)] + runs) == 0
    assert agg2.read_bytes() == (outdir / "aggregate.json").read_bytes()
    data = json.loads(agg2.read_text())
    assert data["per_payload"]["80"]["pdr_mean"] == 1.0
    for key in ("per_payload", "latency_by_frag_count"):
        assert list(data[key]) == sorted(str(p) for p in data[key])
    assert len(data["latency_by_frag_count"]) == 2


def _run_path_imports(tmp_path, names):
    """Which of `names` a `--jobs 1` run's process has imported."""
    scn = write_scenario(tmp_path, line_topology(3))
    code = ("import sys\n"
            "from lowpansim import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(%r & set(sys.modules)))\n" % set(names))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(lowpansim.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code, "run", "--scenario", str(scn),
         "--out", str(tmp_path / "out"), "--jobs", "1"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def test_run_path_imports_no_dataclasses_or_inspect(tmp_path):
    # The run path imports no module it does not use; dataclasses alone
    # would bring inspect, ast and dis into every run's process.
    assert _run_path_imports(tmp_path, {"dataclasses", "inspect"}) == "[]"


def test_run_path_loads_no_openssl_or_statistics(tmp_path):
    # hashlib loads OpenSSL's libcrypto through _hashlib, and statistics
    # brings fractions and decimal: megabytes of resident memory per run.
    names = {"_hashlib", "hashlib", "statistics", "fractions", "decimal"}
    assert _run_path_imports(tmp_path, names) == "[]"


def _edit_sent_column(text, edit):
    """`text` with edit(cells, column of "sent", is header) applied to each
    line of its [summary] table."""
    lines = text.split("\n")
    start = lines.index("[summary]") + 1
    col = lines[start].split("\t").index("sent")
    for i in range(start, lines.index("[latency]")):
        lines[i] = "\t".join(edit(lines[i].split("\t"), col, i == start))
    return "\n".join(lines)


def _edit_first_row(text, section, column, value):
    """`text` with `column` of the first row of [section] set to value."""
    lines = text.split("\n")
    start = lines.index("[%s]" % section) + 1
    col = lines[start].split("\t").index(column)
    cells = lines[start + 1].split("\t")
    cells[col] = value
    lines[start + 1] = "\t".join(cells)
    return "\n".join(lines)


def test_malformed_run_files_exit_2(tmp_path, capsys):
    scn = write_scenario(tmp_path, line_topology(4))
    outdir = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(outdir)]) == 0
    good = (outdir / "run-00.txt").read_text()
    bad = {
        "cut.txt": "".join(good.splitlines(keepends=True)[:3]),
        "no_sent.txt": _edit_sent_column(
            good, lambda cells, col, header: cells[:col] + cells[col + 1:]),
        "text_sent.txt": _edit_sent_column(
            good, lambda cells, col, header:
            cells if header else cells[:col] + ["4.0"] + cells[col + 1:]),
        # delivered / sent would overflow a float.
        "huge_delivered.txt": _edit_sent_column(
            good, lambda cells, col, header:
            cells if header else cells[:col + 1] + ["9" * 400]
            + cells[col + 2:]),
        # Past 2**63: no simulation writes such a cell, and a float cannot
        # hold the aggregate's means of it.
        "huge_latency.txt": _edit_first_row(
            good, "latency", "latency_us", "9" * 400),
        "huge_counter.txt": _edit_first_row(
            good, "node_counters", "l2_retransmissions", "9" * 400),
        # No longer the scenario its fingerprint names.
        "edited_strategy.txt": good.replace("\nstrategy\tHWR\n",
                                            "\nstrategy\tFF\n"),
    }
    lines = good.split("\n")
    row = lines.index("[latency]") + 2          # first latency row
    assert lines[row].startswith("80\t")
    lines[row] = "176" + lines[row][2:]
    bad["orphan_row.txt"] = "\n".join(lines)    # payload 176 has no summary
    # One latency row fewer than the datagrams delivered.
    del lines[row]
    bad["short_latency.txt"] = "\n".join(lines)
    # A repeated section, which would replace the first: an empty second
    # [latency] erasing every latency row, and [node_counters] given twice.
    bad["empty_latency.txt"] = "%s[latency]\n%s\n" % (good, lines[row - 1])
    bad["counters_twice.txt"] = good + good[good.index("[node_counters]"):
                                            good.index("[loss_causes]")]
    bad = {name: text.encode() for name, text in bad.items()}
    bad["latin1.txt"] = good.replace("HWR", "H\xe9R").encode("latin-1")
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
        capsys.readouterr()
        assert main(["aggregate", "--out", str(tmp_path / "agg.json"),
                     str(tmp_path / name)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, name
        assert len(err.splitlines()) == 1, name
        assert not (tmp_path / "agg.json").exists()


def test_configuration_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "strategy": "WARP"}))
    assert main(["run", "--scenario", str(bad),
                 "--out", str(tmp_path / "o")]) == 2

    # A value of the wrong type is a bad input, not a crash.
    scn = write_scenario(tmp_path, line_topology(3), force_link_pdr="abc")
    capsys.readouterr()
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: force_link_pdr") and "Traceback" not in err
    assert len(err.splitlines()) == 1

    # A repeated seed would fold one simulation into the aggregate twice.
    scn = write_scenario(tmp_path, line_topology(3), seeds=[1, 1])
    out = tmp_path / "repeated"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seeds") and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()

    # A topology where every member is the sink or one hop from it has no
    # datagram to send.
    scn = write_scenario(tmp_path, line_topology(2))
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "no sender" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1

    # Keys the schema does not have, such as a poll interval for the MAC
    # queue, a switch for the route check, or the frame model's MAC
    # overhead and compressed header size, fixed even at their values.
    for over in ({"mac": {"queue_retry_us": 5000}}, {"check_paths": True},
                 {"mac": {"l2_overhead": 23}},
                 {"stack": {"comp_header_bytes": 24}}):
        scn = write_scenario(tmp_path, line_topology(3), **over)
        out = tmp_path / "unknown"
        assert main(["run", "--scenario", str(scn),
                     "--out", str(out)]) == 2, over
        err = capsys.readouterr().err
        assert err.startswith("error: unknown") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # A topology file with a byte outside ASCII.
    scn = write_scenario(tmp_path, line_topology(3))
    net = tmp_path / "net.txt"
    net.write_bytes(net.read_bytes() + b"# caf\xe9\n")
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not ASCII" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1

    # A topology file with a negative node id.
    scn = write_scenario(tmp_path, line_topology(3))
    net.write_text(NEGATIVE_ID)
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "negative node id -1" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1

    # Backoff exponents above IEEE 802.15.4's bound of 8, which once ran and
    # wrote latencies past 2**63 us (at 1100, a run with several latencies
    # died in an OverflowError), and a file nested too deeply for the JSON
    # decoder, which once raised RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    for mac in ({"min_be": 64, "max_be": 64},
                {"min_be": 1100, "max_be": 1100}, None):
        scn = deep if mac is None else write_scenario(
            tmp_path, line_topology(3), payloads=[16], packets_per_source=1,
            mac=mac)
        assert main(["run", "--scenario", str(scn),
                     "--out", str(tmp_path / "o")]) == 2, mac
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    # A worker count that is not a positive integer is a usage error.
    scn = write_scenario(tmp_path, line_topology(3))
    for jobs in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                  "--jobs", jobs])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs" in err and "Traceback" not in err

    # No subcommand checks the fragment-count table: with the frame model
    # fixed, it could only print what a02 asserts.
    with pytest.raises(SystemExit) as exit_:
        main(["frag-table-check"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("over, code", (
    ({"stack": {"proc_delay_us": 10 ** 19}}, 2),
    ({"mac": {"ack_timeout_us": 10 ** 19}}, 2),
    ({"stack": {"proc_delay_us": MAX_WAIT_US}}, 0),
), ids=("proc-delay-1e19", "ack-timeout-1e19", "proc-delay-at-bound"))
def test_every_run_file_written_can_be_aggregated(tmp_path, capsys, over,
                                                  code):
    # A processing delay of 10**19 us once ran and wrote a latency past
    # 2**63 us, which `aggregate` then refused as out of range.  A wait
    # above MAX_WAIT_US is now a configuration error, and a run at the
    # bound folds back into its own aggregate.json.
    scn = write_scenario(tmp_path, line_topology(4), packets_per_source=1,
                         **over)
    outdir = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(outdir)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not outdir.exists()
        return
    agg = tmp_path / "agg.json"
    assert main(["aggregate", "--out", str(agg),
                 str(outdir / "run-00.txt")]) == 0
    assert agg.read_bytes() == (outdir / "aggregate.json").read_bytes()


def test_aggregate_refuses_mixed_inputs_via_cli(tmp_path, capsys):
    topo = line_topology(4)
    s1 = write_scenario(tmp_path, topo, name="a.json")
    s2 = write_scenario(tmp_path, topo, name="b.json", payloads=[176])
    assert main(["run", "--scenario", str(s1), "--out",
                 str(tmp_path / "o1")]) == 0
    assert main(["run", "--scenario", str(s2), "--out",
                 str(tmp_path / "o2")]) == 0
    runs = [str(p) for p in sorted((tmp_path / "o1").glob("run-*.txt"))]
    runs += [str(p) for p in sorted((tmp_path / "o2").glob("run-*.txt"))]
    assert main(["aggregate", "--out", str(tmp_path / "agg.json")]
                + runs) == 2
    assert "mixed" in capsys.readouterr().err


def test_aggregate_refuses_a_run_file_given_twice(tmp_path, capsys):
    scn = write_scenario(tmp_path, line_topology(4), seeds=[1, 2])
    assert main(["run", "--scenario", str(scn), "--out",
                 str(tmp_path / "o")]) == 0
    run0 = str(tmp_path / "o" / "run-00.txt")
    agg = tmp_path / "agg.json"
    capsys.readouterr()
    assert main(["aggregate", "--out", str(agg), run0, run0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed 1" in err
    assert len(err.splitlines()) == 1 and not agg.exists()


def test_aggregate_reports_the_seeds_of_the_files_it_folds(tmp_path, capsys):
    # Each folded file's own seed, in fold order, beside its pdr value;
    # not the whole scenario's seed list.
    scn = write_scenario(tmp_path, line_topology(5), seeds=[1, 2],
                         force_link_pdr=0.6)
    assert main(["run", "--scenario", str(scn), "--out",
                 str(tmp_path / "o")]) == 0
    run0, run1 = (str(tmp_path / "o" / ("run-%02d.txt" % i)) for i in (0, 1))

    def aggregate(*files):
        out = tmp_path / "agg.json"
        assert main(["aggregate", "--out", str(out), *files]) == 0
        return json.loads(out.read_text())
    one = aggregate(run1)
    assert len(one["seeds"]) == 1 and one["seeds"] == [2]
    pdr = {run: aggregate(run)["per_payload"]["80"]["pdr"]
           for run in (run0, run1)}
    assert pdr[run0] != pdr[run1]            # so the order shows
    both = aggregate(run1, run0)
    assert len(both["seeds"]) == 2 and both["seeds"] == [2, 1]
    assert both["per_payload"]["80"]["pdr"] == pdr[run1] + pdr[run0]


def test_aggregate_folds_invocations_with_different_seeds(tmp_path):
    # A run file is its scenario's fingerprint and its own seed: the files
    # of seeds [1, 2] and [3] fold into the aggregate.json of one run of
    # [1, 2, 3], and seed 1's file is the same in both invocations.
    out = {}
    for seeds in ([1, 2], [3], [1, 2, 3]):
        scn = write_scenario(tmp_path, line_topology(5), seeds=seeds,
                             force_link_pdr=0.6)
        out[tuple(seeds)] = tmp_path / "-".join(map(str, seeds))
        assert main(["run", "--scenario", str(scn), "--out",
                     str(out[tuple(seeds)])]) == 0
    files = [out[1, 2] / "run-00.txt", out[1, 2] / "run-01.txt",
             out[(3,)] / "run-00.txt"]
    agg = tmp_path / "agg.json"
    assert main(["aggregate", "--out", str(agg), *map(str, files)]) == 0
    assert json.loads(agg.read_text())["seeds"] == [1, 2, 3]
    assert agg.read_bytes() == (out[1, 2, 3] / "aggregate.json").read_bytes()
    assert ((out[1, 2] / "run-00.txt").read_bytes()
            == (out[1, 2, 3] / "run-00.txt").read_bytes())


# -- the whole scenario schema --------------------------------------------

WAITS = st.one_of(st.sampled_from((0, MAX_WAIT_US)),
                  st.integers(0, MAX_WAIT_US))
ENTRIES = st.one_of(st.none(), st.integers(1, 64))


@st.composite
def any_scenario(draw):
    """A scenario drawing every key from its valid domain, on a small
    network with one or two datagrams per source.  Retry and backoff counts
    stay small so that each example ends quickly."""
    min_be = draw(st.integers(0, 8))
    lo = draw(st.integers(1, MAX_WAIT_US))
    return {
        "version": 1, "topology": "net.txt",
        "strategy": draw(st.sampled_from(sorted(STRATEGIES))),
        "payloads": draw(st.lists(st.sampled_from(STUDY_PAYLOADS),
                                  min_size=1, max_size=2, unique=True)),
        "interval_us": [lo, draw(st.integers(lo, 2 * MAX_WAIT_US))],
        "packets_per_source": draw(st.integers(1, 2)),
        "seeds": draw(st.lists(st.integers(-(1 << 70), 1 << 70),
                               min_size=1, max_size=2, unique=True)),
        "rbuf_entries": draw(ENTRIES),
        "sink_rbuf_entries": draw(ENTRIES),
        "vrb_entries": draw(ENTRIES),
        "force_link_pdr": draw(st.one_of(
            st.none(), st.just(1.0),
            st.floats(0.0, 1.0, exclude_min=True))),
        "serialize_sends": draw(st.booleans()),
        "mac": {
            "max_retransmissions": draw(st.integers(0, 3)),
            "min_be": min_be,
            "max_be": draw(st.integers(min_be, 8)),
            "max_csma_backoffs": draw(st.integers(0, 3)),
            "ack_timeout_us": draw(WAITS),
            "queue_capacity": draw(st.one_of(st.none(), st.integers(0, 8))),
            "rx_handover_us": draw(WAITS),
        },
        "stack": {
            "reassembly_timeout_us": draw(WAITS),
            "vrb_lifetime_us": draw(WAITS),
            "proc_delay_us": draw(WAITS),
            "frag_buffer_slots": draw(st.one_of(st.none(),
                                                st.integers(0, 8))),
            "arena_bytes": draw(st.one_of(st.none(),
                                          st.integers(0, 10_000))),
        },
    }


@settings(max_examples=200, deadline=None)
@given(any_scenario())
def test_every_valid_scenario_runs_reads_back_and_aggregates(cfg):
    # Whatever the schema accepts, `run` finishes with a verdict (0, or 1
    # for a violation) and no traceback, and its files are exact: each
    # parses and renders back to its bytes, and `aggregate` over them
    # writes `run`'s aggregate.json byte for byte.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_topology(line_topology(4), tmp / "net.txt")
        (tmp / "scn.json").write_text(json.dumps(cfg))
        out, agg = tmp / "out", tmp / "agg.json"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", "--scenario", str(tmp / "scn.json"),
                         "--out", str(out), "--jobs", "1"])
            assert code in (0, 1), err.getvalue()
            paths = sorted(out.glob("run-*.txt"))
            assert len(paths) == len(cfg["seeds"])
            for path in paths:
                assert _render_run(read_run_file(path)) == path.read_text()
            assert main(["aggregate", "--out", str(agg),
                         *map(str, paths)]) == 0, err.getvalue()
        assert agg.read_bytes() == (out / "aggregate.json").read_bytes()
