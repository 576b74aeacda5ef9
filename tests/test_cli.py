"""CLI behavior: exit codes, output files, fixture reproduction."""

import json
from importlib import resources

import pytest

from lowpansim.cli import main

from test_harness import line_topology, write_scenario


def test_frag_table_check_command(capsys):
    assert main(["frag-table-check"]) == 0
    out = capsys.readouterr().out
    assert "16 bytes ->  1 fragment(s)" in out
    assert "1232 bytes -> 14 fragment(s)" in out
    assert "table check ok (14 rows)" in out


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


def _edit_sent_column(text, edit):
    """`text` with edit(cells, column of "sent", is header) applied to each
    line of its [summary] table."""
    lines = text.split("\n")
    start = lines.index("[summary]") + 1
    col = lines[start].split("\t").index("sent")
    for i in range(start, lines.index("[latency]")):
        lines[i] = "\t".join(edit(lines[i].split("\t"), col, i == start))
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
    }
    lines = good.split("\n")
    row = lines.index("[latency]") + 2          # first latency row
    assert lines[row].startswith("80\t")
    lines[row] = "176" + lines[row][2:]
    bad["orphan_row.txt"] = "\n".join(lines)    # payload 176 has no summary
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

    # A topology where every member is the sink or one hop from it has no
    # datagram to send.
    scn = write_scenario(tmp_path, line_topology(2))
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "no sender" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1

    # A topology file with a byte outside ASCII.
    scn = write_scenario(tmp_path, line_topology(3))
    net = tmp_path / "net.txt"
    net.write_bytes(net.read_bytes() + b"# caf\xe9\n")
    assert main(["run", "--scenario", str(scn),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not ASCII" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1

    # A worker count that is not a positive integer is a usage error.
    scn = write_scenario(tmp_path, line_topology(3))
    for jobs in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                  "--jobs", jobs])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs" in err and "Traceback" not in err


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


@pytest.mark.parametrize("flags, message", [
    (["--members", "2"], "member target 2"),
    (["--sink", "999"], "sink 999 not in plan"),
], ids=("members-2", "sink-999"))
def test_generate_topology_bad_request_exits_2(tmp_path, capsys, flags,
                                               message):
    out = tmp_path / "net.txt"
    assert main(["generate-topology", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()
