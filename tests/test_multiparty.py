import numpy as np
import pytest

from gatedecomp import (
    decompose_4party,
    decompose_multiparty,
    fourparty_bound,
    multiparty_bound,
    validate_circuit,
    verify_decomposition,
)
from gatedecomp.gateir import gate_matrix, multiparty_space
from gatedecomp.matcore import PreconditionError, is_unitary, max_abs
from gatedecomp import multiparty, sandwich
from gatedecomp.generators import haar_unitary, random_controlled, random_permutation
from gatedecomp.multiparty import _multi_gates

from conftest import assert_close, noisy_haar


class TestBounds:
    def test_bipartite_consistency(self):
        # two parties: 2(2 dA - 2) - 1 = 4 dA - 5
        for d in range(2, 8):
            assert multiparty_bound((d, 5)) == 4 * d - 5

    def test_three_qubits(self):
        assert multiparty_bound((2, 2, 2)) == 7

    def test_fourparty_qubits(self):
        assert fourparty_bound(2, 2, 2, 2) == 33

    def test_comparison_regime(self):
        # the two cut orders give different bounds at (2, 2, 6, 6)
        assert fourparty_bound(2, 2, 6, 6) == 129
        assert multiparty_bound((2, 2, 6, 6)) == 79


def check_controller_blocks(result, dims):
    """Every gate is block-diagonal in the computational basis of its controllers."""
    space = result.circuit.space
    for g, pattern in zip(result.circuit.gates, result.patterns):
        assert g.controls == pattern
        assert len(g.controls) == len(dims) - 1
        m = gate_matrix(space, g)
        # zero out the control-diagonal blocks and check nothing remains
        t = m.reshape(dims + dims)
        n = len(dims)
        for idx in np.ndindex(*[dims[c] for c in g.controls]):
            sl = [slice(None)] * (2 * n)
            for ax, v in zip(g.controls, idx):
                sl[ax] = v
                sl[ax + n] = v
            t[tuple(sl)] = 0.0
        assert max_abs(t) <= 1e-9


class TestMultiparty:
    @pytest.mark.parametrize("seed", range(4))
    def test_three_qubits(self, seed):
        u = haar_unitary(8, 500 + seed)
        res = decompose_multiparty(u, (2, 2, 2))
        assert res.full_count <= res.bound == 7
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
        check_controller_blocks(res, (2, 2, 2))
        validate_circuit(res.circuit)

    def test_mixed_dims(self):
        u = haar_unitary(12, 61)
        res = decompose_multiparty(u, (2, 3, 2))
        assert res.full_count <= res.bound
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    def test_unequal_dims(self):
        u = haar_unitary(24, 62)
        res = decompose_multiparty(u, (3, 2, 4))
        assert res.full_count <= res.bound == 15
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
        check_controller_blocks(res, (3, 2, 4))

    def test_product_unitary_strips_identities(self):
        u = np.kron(np.kron(haar_unitary(2, 1), haar_unitary(2, 2)), haar_unitary(2, 3))
        res = decompose_multiparty(u, (2, 2, 2))
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
        assert len(res.circuit.gates) <= res.full_count

    def test_merged_gates_unitary(self):
        u = haar_unitary(8, 77)
        res = decompose_multiparty(u, (2, 2, 2))
        space = multiparty_space((2, 2, 2))
        for g in res.circuit.gates:
            assert is_unitary(gate_matrix(space, g))

    def test_bipartite_case_matches_sandwich_bound(self):
        u = haar_unitary(6, 9)
        res = decompose_multiparty(u, (3, 2))
        assert res.bound == 7
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    def test_rejects_nonunitary(self):
        with pytest.raises(PreconditionError):
            decompose_multiparty(np.ones((8, 8)), (2, 2, 2))

    def test_rejects_dim_one_party(self):
        with pytest.raises(PreconditionError):
            decompose_multiparty(np.eye(4), (2, 1, 2))


class TestFourParty:
    @pytest.mark.parametrize("seed", range(2))
    def test_qubits(self, seed):
        u = haar_unitary(16, 800 + seed)
        res = decompose_4party(u, (2, 2, 2, 2))
        assert res.full_count <= res.bound == 33
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8
        check_controller_blocks(res, (2, 2, 2, 2))

    @pytest.mark.parametrize("dims", [(2, 3, 3, 2), (3, 2, 2, 3)])
    def test_unequal_dims(self, dims):
        # dC != dD fixes the order of the lifted branch keys on both sides
        u = haar_unitary(36, 810 + dims[0])
        res = decompose_4party(u, dims)
        assert res.full_count <= res.bound == fourparty_bound(*dims)
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8
        check_controller_blocks(res, dims)

    def test_product_unitary(self):
        u = np.kron(
            np.kron(haar_unitary(2, 4), haar_unitary(2, 5)),
            np.kron(haar_unitary(2, 6), haar_unitary(2, 7)),
        )
        res = decompose_4party(u, (2, 2, 2, 2))
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8

    def test_comparison_instance_both_verify(self):
        # both cut orders handle dims (2, 2, 6, 6); bounds 129 vs 79
        u = haar_unitary(144, 3)
        res4 = decompose_4party(u, (2, 2, 6, 6))
        resn = decompose_multiparty(u, (2, 2, 6, 6))
        assert res4.bound == 129 and resn.bound == 79
        assert res4.full_count <= res4.bound
        assert resn.full_count <= resn.bound
        rep4 = verify_decomposition(u, res4.circuit, classify=False)
        repn = verify_decomposition(u, resn.circuit, classify=False)
        assert rep4.max_error <= 1e-8
        assert repn.max_error <= 1e-8

    def test_party_count_enforced(self):
        with pytest.raises(PreconditionError):
            decompose_4party(np.eye(8), (2, 2, 2))


# Exact kept-gate counts on permutations, recorded with the modified
# Gram-Schmidt completion; a completion in another basis of the same spaces
# moves the (2, 3, 2) seed-6 and the (2, 3, 2, 2) counts.
@pytest.mark.parametrize(
    "decompose,dims,seed,expected",
    [
        (decompose_multiparty, (2, 2, 2), 4, 5),
        (decompose_multiparty, (2, 3, 2), 4, 7),
        (decompose_multiparty, (2, 3, 2), 6, 13),
        (decompose_multiparty, (3, 2, 2), 4, 15),
        (decompose_4party, (2, 2, 2, 2), 4, 15),
        (decompose_4party, (2, 3, 2, 2), 4, 27),
        (decompose_4party, (8, 2, 4, 2), 4, 149),
    ],
)
def test_pinned_permutation_gate_counts(decompose, dims, seed, expected):
    u = random_permutation(dims, seed).matrix()
    res = decompose(u, dims)
    assert len(res.circuit.gates) == expected
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-12


@pytest.mark.parametrize("noise", [3e-10, 1e-9])
@pytest.mark.parametrize(
    "decompose,dims",
    [
        (decompose_multiparty, (3, 3)),
        (decompose_multiparty, (4, 2)),
        (decompose_multiparty, (4, 4)),
        (decompose_multiparty, (6, 5)),
        (decompose_multiparty, (2, 3, 2)),
        (decompose_4party, (2, 2, 2, 2)),
        (decompose_4party, (2, 3, 2, 2)),
    ],
)
def test_noisy_unitary_decomposes(decompose, dims, noise):
    # inputs the entry check accepts are decomposed through their polar
    # factor, and the circuit still verifies against the noisy input
    for seed in range(3):
        u = noisy_haar(int(np.prod(dims)), seed, noise)
        assert is_unitary(u, 1e-8)
        res = decompose(u, dims)
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8


# Haar inputs whose top cosine-sine step takes the two-SVD route (2p >= 32).
# The middle gate's branches are re-decomposed across the AB cut, and their
# outer factors are identities only when the angles come in zuncsd's
# increasing order: in another order (2, 2, 3, 3) gives 33 and (2, 3, 3, 2)
# 65.  Counts recorded with zuncsd alone.
@pytest.mark.parametrize("dims,expected", [((2, 2, 3, 3), 31), ((2, 3, 3, 2), 63)])
def test_pinned_haar_4party_gate_counts(dims, expected):
    n = int(np.prod(dims))
    u = haar_unitary(n, 600 + n)
    res = decompose_4party(u, dims)
    assert len(res.circuit.gates) == expected
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-12


def _count_recursion_calls(monkeypatch):
    """Record (stack size, dA, dB) of every ``_sandwich_gates`` call."""
    calls = []
    original = sandwich._sandwich_gates

    def counted(u, da, db):
        calls.append((len(u), da, db))
        return original(u, da, db)

    monkeypatch.setattr(sandwich, "_sandwich_gates", counted)
    monkeypatch.setattr(multiparty, "_sandwich_gates", counted)
    return calls


def test_recursion_runs_once_per_level(monkeypatch):
    """One ``_sandwich_gates`` call per level, not one per branch: Haar 4^4
    has three party levels of two sandwich levels each (a call per branch
    made 1,365 calls)."""
    calls = _count_recursion_calls(monkeypatch)
    decompose_multiparty(haar_unitary(256, 7), (4, 4, 4, 4))
    assert len(calls) < 50
    assert [(da, db) for _, da, db in calls] == [(4, 64), (2, 64), (4, 16), (2, 16), (4, 4), (2, 4)]
    assert [k for k, _, _ in calls] == [1, 4, 16, 64, 256, 1024]


def test_fourparty_cut_recurses_on_whole_branch_stacks(monkeypatch):
    """The AB|CD cut sends the branches of all AB-controlled gates down as
    one stack and those of all CD-controlled gates as another."""
    calls = _count_recursion_calls(monkeypatch)
    decompose_4party(haar_unitary(81, 7), (3, 3, 3, 3))
    assert len(calls) < 50
    # the 9 x 9 cut has g(9) = 31 slots: 16 AB-controlled gates and 15
    # CD-controlled ones, of 9 branches each
    assert calls[0] == (1, 9, 9)
    assert [c for c in calls if c[1:] == (3, 3)] == [(16 * 9, 3, 3), (15 * 9, 3, 3)]


@pytest.mark.parametrize("dims,cut", [((2, 3, 2), 1), ((2, 2, 3, 2), 2)], ids=["cut1", "cut2"])
def test_multi_gates_stack_gives_the_bytes_of_single_calls(dims, cut):
    n = int(np.prod(dims))
    items = [haar_unitary(n, 3), np.eye(n), random_controlled(2, n // 2, 4, "A"), haar_unitary(n, 5)]
    u = np.stack(items).astype(complex)
    stacked = _multi_gates(u, dims, cut)
    for j in range(len(u)):
        alone = _multi_gates(u[j][None], dims, cut)
        assert [(c, t) for c, t, _ in alone] == [(c, t) for c, t, _ in stacked]
        for (_, _, s), (_, _, a) in zip(stacked, alone):
            assert s[j].tobytes() == a[0].tobytes()
