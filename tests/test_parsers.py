"""Property tests of the three input parsers: whatever the input, each
returns its object or raises its own error class, never another exception.

Inputs are arbitrary values or text, and valid files with a few lines or
tokens dropped, repeated, inserted or replaced, so that most examples get
past the first check.
"""

from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from lowpansim.harness import (STUDY_PAYLOADS, Run, Scenario, ScenarioError,
                               _SCHEMA, load_scenario, read_run_file,
                               run_experiment, scenario_from_dict)
from lowpansim.link_mac import MacParams
from lowpansim.node_stack import StackParams
from lowpansim.topology import Topology, TopologyFileError, load_topology

from test_harness import line_topology, write_scenario

EXAMPLES = settings(max_examples=200, deadline=None)

PACKAGED = (resources.files("lowpansim.data") / "topology50.txt").read_text()

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8))
JSON = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10)
TOKENS = (st.sampled_from(("", "0", "1", "-1", "2.5", "nan", "inf", "1e999",
                           "1_0", "x", "\t", "[summary]", "9" * 400))
          | st.integers().map(str) | st.floats().map(repr)
          | st.text(max_size=6))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the packaged topology and one valid run file."""
    path = tmp_path_factory.mktemp("parsers")
    (path / "topology50.txt").write_text(PACKAGED)
    scn = load_scenario(write_scenario(path, line_topology(4)))
    run_experiment(scn, path / "out")
    return path


@st.composite
def edited(draw, text, sep):
    """`text` with up to three line or token edits."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "insert", "token")))
        if action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        elif action == "insert":
            lines.insert(i, sep.join(draw(st.lists(TOKENS, max_size=5))))
        else:
            cells = lines[i].split(sep)
            cells[draw(st.integers(0, len(cells) - 1))] = draw(TOKENS)
            lines[i] = sep.join(cells)
    return "\n".join(lines)


def _params(cls):
    return st.dictionaries(st.sampled_from(cls._fields)
                           | st.text(max_size=4),
                           st.integers(-2, 300) | SCALARS, max_size=4)


VALID = {"version": 1, "topology": "topology50.txt", "strategy": "FF",
         "payloads": [80, 1232], "interval_us": [1000, 2000], "seeds": [1]}
VALUES = {
    "topology": st.sampled_from(("topology50.txt", "missing.txt", "", "."))
    | JSON,
    "strategy": st.sampled_from(("HWR", "FF", "FF_QUEUED")) | JSON,
    "payloads": st.lists(st.sampled_from(STUDY_PAYLOADS) | st.integers(),
                         max_size=3) | JSON,
    "interval_us": st.lists(st.integers(-1, 10 ** 7), max_size=3) | JSON,
    "seeds": st.lists(st.integers(), max_size=3) | JSON,
    "mac": _params(MacParams) | JSON,
    "stack": _params(StackParams) | JSON,
}
KEYS = ["version", "frobnicate"] + [key for key, _, _ in _SCHEMA]


@st.composite
def scenario_documents(draw):
    """A valid scenario with a few keys dropped or given other values."""
    doc = dict(VALID)
    for key in draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=4)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(VALUES.get(key, JSON))
    return doc


@EXAMPLES
@given(st.one_of(JSON, scenario_documents()))
def test_any_json_gives_a_scenario_or_a_scenario_error(work, doc):
    try:
        scenario = scenario_from_dict(doc, base_dir=work)
    except ScenarioError:
        return
    assert isinstance(scenario, Scenario)


@EXAMPLES
@given(st.one_of(st.text(), edited(PACKAGED, " ")))
def test_any_topology_text_gives_a_topology_or_a_topology_error(work, text):
    path = work / "topology.txt"
    path.write_text(text, encoding="utf-8")
    try:
        topo = load_topology(path)
    except TopologyFileError:
        return
    assert isinstance(topo, Topology)


@EXAMPLES
@given(st.data())
def test_any_run_file_text_gives_a_run_or_a_scenario_error(work, data):
    valid = (work / "out" / "run-00.txt").read_text()
    text = data.draw(st.one_of(st.text(), edited(valid, "\t")))
    path = work / "run.txt"
    path.write_text(text, encoding="utf-8")
    try:
        run = read_run_file(path)
    except ScenarioError:
        return
    assert isinstance(run, Run)


def test_the_unedited_inputs_parse(work):
    assert isinstance(scenario_from_dict(VALID, base_dir=work), Scenario)
    assert isinstance(load_topology(work / "topology50.txt"), Topology)
    assert isinstance(read_run_file(work / "out" / "run-00.txt"), Run)
