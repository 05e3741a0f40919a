"""One input contract for the eight dense entry points.

Each dense entry point checks its matrix through ``unitary_input(u, dims)``
and nothing else, so a bad input meets the same exception and message
whichever entry point it is given to, and every one of them polishes a
unitary that drifts past ``POLAR_TOL``.
"""

import numpy as np
import pytest

from gatedecomp import (
    ComplexPermutation,
    TransferResult,
    codecs,
    compile_to_standard,
    decompose_2xd_aform,
    decompose_4party,
    decompose_bcu3,
    decompose_multiparty,
    decompose_sandwich,
    emit_transfer_protocol,
    is_unitary,
    rank2_to_controlled,
)
from gatedecomp.generators import haar_unitary
from gatedecomp.matcore import PreconditionError, checked_dims, unitary_input

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def entry_points(dims, dims4):
    """Each dense entry point on a 2 x dB input; the 4-party one on ``dims4``."""
    da, db = dims
    return {
        "decompose_sandwich": lambda u: decompose_sandwich(u, da, db),
        "decompose_bcu3": lambda u: decompose_bcu3(u, da, db),
        "decompose_multiparty": lambda u: decompose_multiparty(u, dims),
        "decompose_4party": lambda u: decompose_4party(u, dims4),
        "decompose_2xd_aform": lambda u: decompose_2xd_aform(u, db),
        "rank2_to_controlled": lambda u: rank2_to_controlled(u, da, db),
        "emit_transfer_protocol": lambda u: emit_transfer_protocol(u, da, db),
        "compile_to_standard": lambda u: compile_to_standard(u, da, db),
    }


def _with(i, j, value, n=16):
    m = np.eye(n, dtype=complex)
    m[i, j] = value
    return m


# name -> (matrix, bipartite dims, 4-party dims); the dims of a case have one product
BAD = {
    "non_square": (np.eye(16)[:, :15], (2, 8), (2, 2, 2, 2)),
    "wrong_side": (np.eye(6), (2, 8), (2, 2, 2, 2)),
    "dim_zero": (np.eye(16), (2, 0), (2, 2, 2, 0)),
    "dim_minus_one": (np.eye(16), (2, -1), (2, 2, 2, -1)),
    "nan_entry": (_with(3, 3, np.nan), (2, 8), (2, 2, 2, 2)),
    "not_unitary": (_with(0, 0, 1 + 1e-7), (2, 8), (2, 2, 2, 2)),
}


@pytest.mark.parametrize("u, dims, dims4", BAD.values(), ids=BAD.keys())
def test_a_bad_input_meets_one_error_at_every_entry_point(u, dims, dims4):
    with pytest.raises(ValueError) as want:
        unitary_input(u, dims)
    for name, call in entry_points(dims, dims4).items():
        with pytest.raises(ValueError) as got:
            call(u)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), name


@pytest.mark.parametrize("dims", [(2, 0), (-2, -2), (2.5, 2)], ids=["zero", "negative", "float"])
def test_the_permutation_route_reads_dims_by_the_same_rule(dims):
    # compile_to_standard's complexPerm route leaves its check to from_matrix
    with pytest.raises((ValueError, TypeError)) as want:
        checked_dims(dims)
    calls = {
        "from_matrix": lambda: ComplexPermutation.from_matrix(np.eye(4), dims),
        "complexPerm": lambda: compile_to_standard(np.eye(4), *dims, "complexPerm"),
        "general": lambda: compile_to_standard(np.eye(4), *dims),
    }
    for name, call in calls.items():
        with pytest.raises((ValueError, TypeError)) as got:
            call()
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), name


def _controlled_from_a(db: int, seed: int) -> np.ndarray:
    """A 2 x dB unitary of Schmidt rank 2, so that every entry point takes it."""
    u = np.zeros((2 * db, 2 * db), dtype=complex)
    u[:db, :db] = haar_unitary(db, seed)
    u[db:, db:] = haar_unitary(db, seed + 1)
    return np.kron(haar_unitary(2, seed + 2), np.eye(db)) @ u


def _fingerprint(res) -> bytes:
    if isinstance(res, tuple):  # rank2_to_controlled: (loc_l, gate, loc_r)
        loc_l, gate, loc_r = res
        return loc_l.tobytes() + gate.palette.tobytes() + loc_r.tobytes()
    text = codecs.dumps_canonical(codecs.circuit_to_obj(getattr(res, "circuit", res))).encode()
    return text + res.embedded.tobytes() if isinstance(res, TransferResult) else text


def test_a_drifting_unitary_is_polished_by_every_entry_point():
    u = _controlled_from_a(8, 40)
    drifted = u * (1 + 1e-9)
    polished = unitary_input(drifted, (2, 8))
    assert not is_unitary(drifted, 1e-12) and is_unitary(polished, 1e-13)
    for name, call in entry_points((2, 8), (2, 2, 2, 2)).items():
        assert _fingerprint(call(drifted)) == _fingerprint(call(polished)), name
    assert is_unitary(emit_transfer_protocol(drifted, 2, 8).embedded, 1e-13)


def test_rank2_refuses_a_non_unitary_schmidt_rank_2_input():
    # 2 CNOT has Schmidt rank 2 and once came back as branches 2 I and 2 X
    with pytest.raises(PreconditionError, match="not unitary"):
        rank2_to_controlled(2 * CNOT, 2, 2)


def test_aform_takes_db_from_the_caller():
    with pytest.raises(TypeError):
        decompose_2xd_aform(haar_unitary(6, 3))
