import numpy as np
import pytest

from gatedecomp import operator_schmidt, realign, schmidt_rank
from gatedecomp.generators import haar_unitary, random_controlled, swap_unitary

from conftest import assert_close

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_identity_rank_one():
    assert operator_schmidt(np.eye(6), 2, 3).rank == 1


def test_cnot_rank_two():
    assert operator_schmidt(CNOT, 2, 2).rank == 2


@pytest.mark.parametrize("d", [2, 3])
def test_swap_rank_d_squared(d):
    assert operator_schmidt(swap_unitary(d), d, d).rank == d * d


def test_realign_shape_and_convention():
    u = np.kron(np.diag([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]]))
    r = realign(u, 2, 2)
    # a product operator realigns to a rank-one outer product
    assert r.shape == (4, 4)
    assert np.linalg.matrix_rank(r) == 1


def test_reconstruction_invariant():
    u = haar_unitary(12, 7)
    dec = operator_schmidt(u, 3, 4)
    assert_close(dec.reconstruct(), u, 1e-8)
    # coefficients positive and nonincreasing
    coeffs = np.array(dec.coefficients)
    assert np.all(coeffs > 0)
    assert np.all(np.diff(coeffs) <= 1e-12)


def test_terms_orthonormal_under_trace_inner_product():
    u = haar_unitary(6, 19)
    dec = operator_schmidt(u, 2, 3)
    for i, (a_i, b_i) in enumerate(dec.terms):
        for j, (a_j, b_j) in enumerate(dec.terms):
            expect = 1.0 if i == j else 0.0
            assert abs(np.trace(a_i.conj().T @ a_j) - expect) <= 1e-10
            assert abs(np.trace(b_i.conj().T @ b_j) - expect) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_controlled_gate_rank_at_most_da(seed):
    da, db = 3, 4
    c = random_controlled(da, db, seed, "A")
    assert operator_schmidt(c, da, db).rank <= da


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_swap_times_controlled_saturates(d, seed):
    c = random_controlled(d, d, seed, "A")
    assert operator_schmidt(swap_unitary(d) @ c, d, d).rank == d * d


@pytest.mark.parametrize("seed", range(5))
def test_local_unitary_invariance(seed):
    da, db = 2, 3
    u = haar_unitary(da * db, seed)
    p = haar_unitary(da, 100 + seed)
    q = haar_unitary(db, 200 + seed)
    r = haar_unitary(da, 300 + seed)
    s = haar_unitary(db, 400 + seed)
    conj = np.kron(p, q) @ u @ np.kron(r, s)
    assert operator_schmidt(conj, da, db).rank == operator_schmidt(u, da, db).rank


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        operator_schmidt(np.eye(5), 2, 3)


def test_svd_falls_back_when_gesdd_does_not_converge(monkeypatch):
    u = haar_unitary(6, 11)
    expected = operator_schmidt(u, 2, 3)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    dec = operator_schmidt(u, 2, 3)
    assert dec.rank == expected.rank == schmidt_rank(u, 2, 3) == 4
    assert_close(dec.coefficients, expected.coefficients, 1e-12)
    assert_close(dec.reconstruct(), u, 1e-12)


@pytest.mark.parametrize(
    "u,da,db",
    [
        (np.eye(6), 2, 3),
        (np.zeros((4, 4)), 2, 2),
        (CNOT, 2, 2),
        (swap_unitary(3), 3, 3),
        (haar_unitary(12, 3), 3, 4),
        (random_controlled(3, 4, 5, "A"), 3, 4),
        (np.kron(haar_unitary(2, 1), haar_unitary(3, 2)), 2, 3),
    ],
)
def test_schmidt_rank_matches_the_decomposition(u, da, db):
    assert schmidt_rank(u, da, db) == operator_schmidt(u, da, db).rank
