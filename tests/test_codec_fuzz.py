"""Mutated matrix and circuit files through the CLI.

Valid files are broken one way at a time: truncated JSON, a missing key, a
string, null, boolean or huge integer in place of a number, a ragged matrix
row, an ``[re, im, x]`` triple, or a bad control tuple.  Every ``decompose``
and ``verify`` call on such a file must exit 3 with an ``error:`` line; an
exception escaping ``cli.main`` fails the test.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import Ancilla, Circuit, CnotGate, GenericGate, LocalGate, PartySpace, TwoLevelGate
from gatedecomp import apply_circuit, bipartite_space, cli, codecs, controlled
from gatedecomp.generators import haar_unitary, random_permutation

HUGE = 10**400

CNOT44 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files: two matrix files, a circuit of every gate kind with an ancilla, its unitary."""
    d = tmp_path_factory.mktemp("fuzz")
    gates = (
        controlled((0,), (1,), {(0,): np.eye(2), (1,): haar_unitary(2, 1)}),
        LocalGate(1, haar_unitary(2, 2)),
        TwoLevelGate(0, (0, 1), 1, (0, 1), CNOT44),
        CnotGate(1, (0, 1), 0, (0, 1)),
        GenericGate((0, 1), haar_unitary(4, 3), cut=1),
    )
    # the ancilla is flipped and flipped back, so the target is the parties' product
    space = PartySpace(parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),))
    flip = LocalGate(2, np.array([[0, 1], [1, 0]]))
    circuit = Circuit(space, (flip,) + gates + (flip,))
    paths = {name: str(d / f"{name}.json") for name in ("unitary", "perm", "circuit", "target", "bad")}
    codecs.save_matrix_file(paths["unitary"], haar_unitary(4, 5), (2, 2), "unitary")
    codecs.save_matrix_file(paths["perm"], random_permutation((2, 3), 5).matrix(), (2, 3), "permutation")
    codecs.save_circuit_file(paths["circuit"], circuit)
    target = apply_circuit(Circuit(bipartite_space(2, 2), gates))
    codecs.save_matrix_file(paths["target"], target, (2, 2), "unitary")
    return paths


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _sites(obj, path=()):
    """Every (path, value) below ``obj``, skipping the optional metrics block."""
    yield path, obj
    if isinstance(obj, dict):
        items = ((k, v) for k, v in obj.items() if k != "metrics")
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for k, v in items:
        yield from _sites(v, path + (k,))


def _parent(obj, path):
    for k in path[:-1]:
        obj = obj[k]
    return obj


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(path, v):
    return "matrix" in path and isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


def _is_row(path, v):
    return "matrix" in path and isinstance(v, list) and v and all(_is_pair(path, x) for x in v)


@st.composite
def mutations(draw, text):
    """A broken copy of the canonical JSON ``text``."""
    obj = json.loads(text)
    sites = list(_sites(obj))
    kinds = ["truncate", "drop_key", "bad_number", "ragged_row", "triple"]
    branches = [v for _, v in sites if isinstance(v, dict) and "control" in v]
    if branches:
        kinds.append("bad_control")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "drop_key":
        # every key outside the metrics block is required here: the gates use the ancilla
        keys = [p for p, _ in sites if p and isinstance(p[-1], str)]
        path = draw(st.sampled_from(keys))
        del _parent(obj, path)[path[-1]]
    elif kind == "bad_number":
        path = draw(st.sampled_from([p for p, v in sites if _is_number(v)]))
        _parent(obj, path)[path[-1]] = draw(st.sampled_from(["0.5", "x", None, HUGE, -HUGE, True, False]))
    elif kind == "ragged_row":
        # rows of one matrix have equal lengths, and every matrix has two or more rows
        row = draw(st.sampled_from([v for p, v in sites if _is_row(p, v)]))
        row.pop(draw(st.integers(0, len(row) - 1)))
    elif kind == "triple":
        pair = draw(st.sampled_from([v for p, v in sites if _is_pair(p, v)]))
        pair.append(draw(st.sampled_from([0.0, 1, "x", None])))
    else:
        branch = draw(st.sampled_from(branches))
        others = [b["control"] for b in branches if b is not branch]
        arity = len(branch["control"])
        bad = [[], [0] * (arity + 1), ["0"] * arity, [None] * arity, [-1] * arity,
               [HUGE] * arity, [7] * arity, [0.0] * arity, [True] * arity, [False] * arity, 5, "0"]
        branch["control"] = copy.deepcopy(draw(st.sampled_from(bad + others)))
    return json.dumps(obj)


def _assert_exit_3(code, err):
    assert code == 3, err
    assert err.startswith("error: ") and err.endswith("\n")
    assert "Traceback" not in err


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_matrix_file_exits_3(files, data):
    name, method = data.draw(st.sampled_from([("unitary", "sandwich"), ("perm", "perm3")]))
    with open(files[name]) as fh:
        text = data.draw(mutations(fh.read()))
    with open(files["bad"], "w") as fh:
        fh.write(text)
    _assert_exit_3(*_cli("decompose", "--method", method, "-i", files["bad"], "-o", files["bad"] + ".c"))
    _assert_exit_3(*_cli("verify", "-u", files["bad"], "-c", files["circuit"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_circuit_file_exits_3(files, data):
    with open(files["circuit"]) as fh:
        text = data.draw(mutations(fh.read()))
    with open(files["bad"], "w") as fh:
        fh.write(text)
    _assert_exit_3(*_cli("verify", "-u", files["target"], "-c", files["bad"]))


def test_unmutated_files_pass(files):
    assert _cli("verify", "-u", files["target"], "-c", files["circuit"])[0] == 0
    for name, method in (("unitary", "sandwich"), ("perm", "perm3")):
        assert _cli("decompose", "--method", method, "-i", files[name], "-o", files["bad"] + ".c")[0] == 0
