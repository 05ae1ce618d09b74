"""Mutated bundled graph and schedule files.

Each case mutates one bundled file: it drops a key, swaps a value's type,
makes a weight ragged or non-square, puts a non-finite or overflowing number
in, or moves a vertex or graph id out of range.  The readers must answer with
a value, a FileFormatError or a ConsensusError, and the CLI with exit 0, 1 or
2; no other exception may escape.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntconsensus import ConsensusError, FileFormatError, bundled_path, load_graph, load_schedule
from ntconsensus.cli import main

GRAPHS = ("net_a", "net_a_weak", "net_b", "net_c")
# values swapped in anywhere; none is a large integral number, which would
# read as a huge vertex count
ODD = [None, True, False, "1", "false", "", [], {}, [1.0], {"n": 1}, 0, -1, 2, 1.5,
       float("nan"), float("inf"), -float("inf")]
NON_FINITE = [float("nan"), float("inf"), -float("inf"), 1.7e308, -1.7e308]
BAD_IDS = [0, -1, 8, 10**9, 2.5]
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _generic(data, doc):
    """Drop a key or list entry, or swap any value for an odd one."""
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    if path and data.draw(st.booleans()):
        del _get(doc, path[:-1])[path[-1]]
        return doc
    return _set(doc, path, data.draw(st.sampled_from(ODD)))


def _mutate_graph(data, doc):
    edge = data.draw(st.integers(0, len(doc["edges"]) - 1))
    weight = doc["edges"][edge]["weight"]
    kind = data.draw(st.sampled_from(["generic", "ragged", "nonsquare", "number", "id"]))
    if kind == "ragged":
        weight[data.draw(st.integers(0, len(weight) - 1))].pop()
    elif kind == "nonsquare":
        if data.draw(st.booleans()):
            weight.pop()
        else:
            for row in weight:
                row.append(1.0)
    elif kind == "number":
        row = data.draw(st.integers(0, len(weight) - 1))
        col = data.draw(st.integers(0, len(weight[row]) - 1))
        weight[row][col] = data.draw(st.sampled_from(NON_FINITE))
    elif kind == "id":
        end = data.draw(st.sampled_from(["from", "to"]))
        doc["edges"][edge][end] = data.draw(st.sampled_from(BAD_IDS))
    else:
        doc = _generic(data, doc)
    return doc


def _mutate_schedule(data, doc):
    kind = data.draw(st.sampled_from(["generic", "number", "id", "dt_list"]))
    if kind == "number":
        doc[data.draw(st.sampled_from(["alpha", "dt"]))] = data.draw(st.sampled_from(NON_FINITE))
    elif kind == "id":
        doc["pattern"][data.draw(st.integers(0, len(doc["pattern"]) - 1))] = \
            data.draw(st.sampled_from(BAD_IDS))
    elif kind == "dt_list":
        doc["dt"] = [doc["dt"]] * len(doc["pattern"])
        doc = _generic(data, doc)
    else:
        doc = _generic(data, doc)
    return doc


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


@FUZZ
@given(data=st.data())
def test_mutated_graph_files(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(GRAPHS))
    doc = _mutate_graph(data, json.loads(bundled_path(f"{name}.json").read_text()))
    p = _write(tmp_path, "g.json", doc)
    try:
        load_graph(p)
    except (FileFormatError, ConsensusError):
        pass
    for argv in (["check", "--graph", str(p), "--v1", "auto"],
                 ["design", "--graph", str(p), "--v1", "auto", "--theta", "1,2,-1"]):
        assert main(argv) in (0, 1, 2)
    capsys.readouterr()


@FUZZ
@given(data=st.data())
def test_mutated_schedule_files(tmp_path, capsys, data):
    doc = _mutate_schedule(data, json.loads(bundled_path("cycle_schedule.json").read_text()))
    p = _write(tmp_path, "s.json", doc)
    try:
        load_schedule(p)
    except (FileFormatError, ConsensusError):
        pass
    graphs = [str(bundled_path(f"{g}.json")) for g in ("net_a", "net_b", "net_c")]
    rc = main(["simulate", "--graphs", *graphs, "--v1", "1,2,3,4;2,3;1,2,3",
               "--theta", "1,2,-1", "--delta", "7.0495", "--delta", "7.2440",
               "--delta", "3.1", "--schedule", str(p), "--T", "0.04", "--h", "0.01"])
    assert rc in (0, 1, 2)
    capsys.readouterr()

