import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import (
    Ancilla,
    Circuit,
    CnotGate,
    ControlledGate,
    GenericGate,
    LocalGate,
    PartySpace,
    TwoLevelGate,
    apply_circuit,
    bipartite_space,
    circuit_permutation,
    classify_gate,
    classify_matrix,
    controlled,
    multiparty_space,
    validate_circuit,
    verify_decomposition,
)
from gatedecomp.gateir import CircuitError, gate_matrix, recompute_metrics
from gatedecomp.matcore import DEFAULT_EPS, PreconditionError, max_abs
from gatedecomp.schmidt import schmidt_rank
from gatedecomp.generators import (
    example2_flags,
    haar_unitary,
    swap_unitary,
)
from gatedecomp.protocols import pair_swap_family_unitary

from conftest import assert_close

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cnot_gate():
    return CnotGate(0, (0, 1), 1, (0, 1))


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        c = Circuit(bipartite_space(2, 2), ())
        assert_close(apply_circuit(c), np.eye(4), 0)

    def test_single_cnot(self):
        c = Circuit(bipartite_space(2, 2), (cnot_gate(),))
        assert_close(apply_circuit(c), CNOT, 0)

    def test_worked_two_gate_permutation_product(self):
        # the shipped 18x18 example equals the product of its two column-flag gates
        flags = example2_flags()
        u = pair_swap_family_unitary(flags).astype(complex)
        v_branches = {}
        w_branches = {}
        pair01 = np.eye(6, dtype=complex)
        pair01[0:2, 0:2] = X
        pair01[2:4, 2:4] = X
        pair12 = np.eye(6, dtype=complex)
        pair12[2:4, 2:4] = X
        pair12[4:6, 4:6] = X
        eye6 = np.eye(6, dtype=complex)
        for b in range(3):
            v_branches[(b,)] = pair01 if b in (0, 1) else eye6
            w_branches[(b,)] = pair12 if b in (1, 2) else eye6
        v = controlled((1,), (0,), v_branches)
        w = controlled((1,), (0,), w_branches)
        c = Circuit(bipartite_space(6, 3), (v, w))
        assert_close(apply_circuit(c), u, 0)

    def test_gate_order_is_product_order(self):
        # gates[0] is the left factor: U = M0 @ M1
        a = LocalGate(0, haar_unitary(2, 1))
        b = LocalGate(0, haar_unitary(2, 2))
        c = Circuit(bipartite_space(2, 2), (a, b))
        expected = np.kron(a.matrix @ b.matrix, np.eye(2))
        assert_close(apply_circuit(c), expected, 1e-12)

    def test_concatenation_matches_product(self):
        space = bipartite_space(2, 3)
        g1 = controlled((0,), (1,), {(0,): haar_unitary(3, 3), (1,): haar_unitary(3, 4)})
        g2 = controlled((1,), (0,), {(b,): haar_unitary(2, 5 + b) for b in range(3)})
        whole = apply_circuit(Circuit(space, (g1, g2)))
        parts = apply_circuit(Circuit(space, (g1,))) @ apply_circuit(Circuit(space, (g2,)))
        assert_close(whole, parts, 1e-10)

    def test_dimension_mismatch_reports_gate_index(self):
        g = controlled((0,), (1,), {(0,): np.eye(2), (1,): np.eye(2)})
        c = Circuit(bipartite_space(2, 3), (g,))
        with pytest.raises(CircuitError, match="gate 0"):
            apply_circuit(c)

    def test_refuses_a_space_above_the_dense_limit(self):
        # 128 x 128 basis states: refused before any N x N array exists
        c = Circuit(bipartite_space(128, 128), (cnot_gate(),))
        with pytest.raises(PreconditionError, match="dense limit"):
            apply_circuit(c)
        with pytest.raises(PreconditionError, match="dense limit"):
            gate_matrix(c.space, c.gates[0])

    def test_two_level_embedding(self):
        g = TwoLevelGate(0, (0, 1), 1, (0, 1), CNOT)
        c = Circuit(bipartite_space(2, 3), (g,))
        m = apply_circuit(c)
        expected = np.eye(6, dtype=complex)
        expected[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = CNOT
        assert_close(m, expected, 0)

    def test_generic_gate_on_subset_of_axes(self):
        u = haar_unitary(4, 9)
        space = PartySpace(parties=(("A", 2), ("B", 2), ("C", 3)))
        m = apply_circuit(Circuit(space, (GenericGate((0, 1), u, cut=1),)))
        assert_close(m, np.kron(u, np.eye(3)), 1e-12)


class TestVerifyDecomposition:
    def test_cnot_against_itself(self):
        rep = verify_decomposition(CNOT, Circuit(bipartite_space(2, 2), (cnot_gate(),)))
        assert rep.max_error == 0.0
        assert rep.counts() == {"CNOT": 1}
        assert rep.passed

    def test_swap_three_gate_identity(self):
        # the alternating three-CNOT realization of SWAP
        g1 = CnotGate(0, (0, 1), 1, (0, 1))
        g2 = CnotGate(1, (0, 1), 0, (0, 1))
        c = Circuit(bipartite_space(2, 2), (g1, g2, g1))
        rep = verify_decomposition(swap_unitary(2), c)
        assert rep.max_error <= 1e-12

    def test_corrupted_circuit_fails(self):
        c = Circuit(bipartite_space(2, 2), (cnot_gate(), LocalGate(0, X)))
        rep = verify_decomposition(CNOT, c)
        assert not rep.passed
        assert rep.max_error > 1e-8

    def test_ancilla_subspace_comparison(self):
        space = PartySpace(
            parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),)
        )
        # CNOT applied on the parties, ancilla untouched
        c = Circuit(space, (CnotGate(0, (0, 1), 1, (0, 1)),))
        rep = verify_decomposition(CNOT, c)
        assert rep.passed and rep.ancilla_restored

    def test_ancilla_leakage_detected(self):
        space = PartySpace(
            parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),)
        )
        c = Circuit(space, (LocalGate(2, X),))  # flips the ancilla: pure leakage
        rep = verify_decomposition(np.eye(4), c)
        assert not rep.ancilla_restored
        assert rep.leakage == 1.0


class TestClassifyGate:
    def test_cnot_controlled_from_a(self):
        from_a, from_b, rank = classify_matrix(CNOT, 2, 2)
        assert from_a and not from_b and rank == 2

    def test_swap_not_controlled(self):
        from_a, from_b, rank = classify_matrix(swap_unitary(2), 2, 2)
        assert not from_a and not from_b and rank == 4

    def test_diagonal_controlled_both_sides(self):
        d = np.diag(np.exp(1j * np.arange(6)))
        from_a, from_b, rank = classify_matrix(d, 2, 3)
        assert from_a and from_b

    def test_gate_record_classification(self):
        space = bipartite_space(2, 2)
        cl = classify_gate(space, cnot_gate())
        assert cl.controlled_from_a and not cl.controlled_from_b
        assert cl.schmidt_rank == 2


class TestMetrics:
    def test_recompute_is_idempotent(self):
        space = PartySpace(
            parties=(("A", 2), ("B", 2)),
            ancillas=(Ancilla("a", "A", 2, 0), Ancilla("b", "B", 2, 0)),
        )
        gates = (CnotGate(2, (0, 1), 3, (0, 1)), CnotGate(0, (0, 1), 1, (0, 1)))
        c = Circuit(space, gates).with_ebit_estimate(2.0)
        met = recompute_metrics(c)
        assert met == c.metrics
        assert met.nonlocal_cnot == 2
        assert met.ebit_estimate == 2.0

    def test_local_cnot_not_counted_nonlocal(self):
        space = PartySpace(
            parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),)
        )
        c = Circuit(space, (CnotGate(0, (0, 1), 2, (0, 1)),))
        assert c.metrics.nonlocal_cnot == 0

    @pytest.mark.parametrize("control, target", [(0, 5), (-1, 1)])
    def test_cnot_axis_outside_the_space_refused(self, control, target):
        # axis 5 once raised a bare IndexError here, and axis -1 was read as
        # party B, so the CNOT counted as local
        space = PartySpace(
            parties=(("A", 2), ("B", 2)), ancillas=(Ancilla("a", "A", 2, 0),)
        )
        bad = target if control == 0 else control
        with pytest.raises(CircuitError, match=f"axis {bad} outside the space"):
            Circuit(space, (CnotGate(control, (0, 1), target, (0, 1)),))


class TestValidation:
    def test_nonunitary_branch_rejected(self):
        g = controlled((0,), (1,), {(0,): np.eye(2), (1,): np.diag([1.0, 2.0])})
        c = Circuit(bipartite_space(2, 2), (g,))
        with pytest.raises(CircuitError):
            validate_circuit(c)

    def test_missing_branch_rejected(self):
        g = controlled((0,), (1,), {(0,): np.eye(2)})
        c = Circuit(bipartite_space(2, 2), (g,))
        with pytest.raises(CircuitError):
            validate_circuit(c)

    def test_two_level_rank_enforced(self):
        g = TwoLevelGate(0, (0, 1), 1, (0, 1), swap_unitary(2))
        c = Circuit(bipartite_space(2, 2), (g,))
        with pytest.raises(CircuitError, match="Schmidt rank"):
            validate_circuit(c)

    def test_good_circuit_passes(self):
        c = Circuit(bipartite_space(2, 2), (cnot_gate(), LocalGate(0, X)))
        validate_circuit(c)


class TestExactPermutationSimulation:
    def test_matches_dense_on_permutation_circuit(self):
        g1 = CnotGate(0, (0, 1), 1, (0, 1))
        g2 = controlled((1,), (0,), {(0,): np.eye(2, dtype=complex), (1,): X})
        c = Circuit(bipartite_space(2, 2), (g1, g2))
        t, p = circuit_permutation(c)
        dense = apply_circuit(c)
        rebuilt = np.zeros_like(dense)
        rebuilt[t, np.arange(4)] = p
        assert_close(rebuilt, dense, 0)

    def test_rejects_non_permutation(self):
        c = Circuit(bipartite_space(2, 2), (LocalGate(0, haar_unitary(2, 3)),))
        with pytest.raises(CircuitError):
            circuit_permutation(c)


# ---------------------------------------------------------------------------
# properties of the single lowered path, against a reference built per basis state

PHASES = (1, 1j, -1, -1j)  # closed under multiplication, so phase products are exact


def _basis_image(dims, g, x):
    """(coordinates, amplitude) terms of gate ``g`` applied to basis state ``x``."""
    if isinstance(g, CnotGate):
        y = list(x)
        k0, k1 = g.target_pair
        if x[g.control_axis] == g.control_pair[1] and x[g.target_axis] in (k0, k1):
            y[g.target_axis] = k1 if x[g.target_axis] == k0 else k0
        return [(y, 1.0)]
    if isinstance(g, TwoLevelGate):
        a, b = g.axis_a, g.axis_b
        if x[a] not in g.pair_a or x[b] not in g.pair_b:
            return [(list(x), 1.0)]
        col = 2 * g.pair_a.index(x[a]) + g.pair_b.index(x[b])
        terms = []
        for row in range(4):
            y = list(x)
            y[a], y[b] = g.pair_a[row // 2], g.pair_b[row % 2]
            terms.append((y, g.matrix[row, col]))
        return terms
    if isinstance(g, ControlledGate):
        branch, targets = g.branch(tuple(x[ax] for ax in g.controls)), g.targets
    else:
        branch, targets = g.matrix, g.axes
    tdims = [dims[ax] for ax in targets]
    col = np.ravel_multi_index([x[ax] for ax in targets], tdims)
    terms = []
    for row in range(branch.shape[0]):
        y = list(x)
        for ax, v in zip(targets, np.unravel_index(row, tdims)):
            y[ax] = int(v)
        terms.append((y, branch[row, col]))
    return terms


def reference_gate(dims, g) -> np.ndarray:
    """Full-space matrix of one gate, built column by column from basis states."""
    n = math.prod(dims)
    m = np.zeros((n, n), dtype=complex)
    for col in range(n):
        x = [int(v) for v in np.unravel_index(col, dims)]
        for y, amp in _basis_image(dims, g, x):
            m[np.ravel_multi_index(y, dims), col] += amp
    return m


# dense: a Haar unitary, or a phased permutation for permutation-only
# circuits; diagonal, identity and product-of-locals payloads are
# rank-deficient across some cuts, and a repeated-branch controlled gate draws
# its branches from two payloads, so its palette is shorter than its index and
# it may be controlled from either side
PAYLOAD_KINDS = ("dense", "diagonal", "identity", "product", "repeated")


def _payload(draw, tdims, perm_only, kind="dense"):
    k = math.prod(tdims)
    if kind == "identity":
        return np.eye(k, dtype=complex)
    if kind == "product":
        return reduce(np.kron, [_payload(draw, (d,), perm_only) for d in tdims])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.choice(PHASES, size=k))
    if not perm_only:
        return haar_unitary(k, seed)
    m = np.zeros((k, k), dtype=complex)
    m[rng.permutation(k), np.arange(k)] = rng.choice(PHASES, size=k)
    return m


def _pair(draw, d):
    return tuple(draw(st.permutations(range(d)))[:2])


@st.composite
def gates(draw, dims, perm_only):
    n = len(dims)
    kind = draw(st.sampled_from(("controlled", "local", "generic", "two_level", "cnot")))
    payload = draw(st.sampled_from(PAYLOAD_KINDS))
    single = "dense" if payload == "repeated" else payload
    order = draw(st.permutations(range(n)))
    if kind == "controlled":
        n_ctrl = draw(st.integers(0, n - 1))
        n_tgt = draw(st.integers(1, min(2, n - n_ctrl)))
        controls = sorted(order[:n_ctrl])
        targets = sorted(order[n_ctrl : n_ctrl + n_tgt])
        tdims = [dims[ax] for ax in targets]
        keys = np.ndindex(*(dims[ax] for ax in controls))
        if payload != "repeated":
            return controlled(controls, targets, {k: _payload(draw, tdims, perm_only, payload) for k in keys})
        pool = [_payload(draw, tdims, perm_only) for _ in range(2)]
        return controlled(controls, targets, {k: pool[draw(st.integers(0, 1))] for k in keys})
    if kind == "local":
        return LocalGate(order[0], _payload(draw, (dims[order[0]],), perm_only, single))
    if kind == "generic":
        axes = sorted(order[: draw(st.integers(1, 2))])
        return GenericGate(axes, _payload(draw, [dims[ax] for ax in axes], perm_only, single))
    a, b = order[0], order[1]  # either axis may come first
    if kind == "two_level":
        return TwoLevelGate(a, _pair(draw, dims[a]), b, _pair(draw, dims[b]), _payload(draw, (2, 2), perm_only, single))
    return CnotGate(a, _pair(draw, dims[a]), b, _pair(draw, dims[b]))


def _dense_classify(m, da: int, db: int):
    """Reference classifier on a dense (da*db)-square operator.

    Controlled from A (B) when the operator with its A (B) diagonal blocks
    zeroed has no entry above ``DEFAULT_EPS``; the Schmidt rank is that of
    the realigned operator.
    """
    r = m.reshape(da, db, da, db)
    t = r.copy()
    for j in range(da):
        t[j, :, j, :] = 0.0
    off_a = max_abs(t)
    t = r.copy()
    for b in range(db):
        t[:, b, :, b] = 0.0
    off_b = max_abs(t)
    return off_a <= DEFAULT_EPS, off_b <= DEFAULT_EPS, schmidt_rank(m, da, db)


@st.composite
def circuits(draw, perm_only=False):
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    n_gates = draw(st.integers(1, 4))
    return Circuit(multiparty_space(dims), tuple(draw(gates(dims, perm_only)) for _ in range(n_gates)))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


class TestSinglePathProperties:
    @PROPERTY
    @given(circuits())
    def test_apply_circuit_matches_basis_state_reference(self, c):
        dims = c.space.dims
        expected = reduce(np.matmul, [reference_gate(dims, g) for g in c.gates])
        assert_close(apply_circuit(c), expected, 1e-12)

    @PROPERTY
    @given(circuits(perm_only=True))
    def test_permutation_tables_match_dense_exactly(self, c):
        t, p = circuit_permutation(c)
        dense = apply_circuit(c)
        rebuilt = np.zeros_like(dense)
        rebuilt[t, np.arange(t.size)] = p
        assert np.array_equal(rebuilt, dense)

    @PROPERTY
    @given(circuits())
    def test_classify_gate_matches_classify_matrix(self, c):
        # the full-space matrix is the gate on its own axes tensored with the
        # identity, which changes neither controlledness nor Schmidt rank
        dims = c.space.dims
        for g in c.gates:
            full = reference_gate(dims, g)
            for cut in range(1, len(dims)):
                cl = classify_gate(c.space, g, cut)
                da = math.prod(dims[:cut])
                db = full.shape[0] // da
                expected = _dense_classify(full, da, db)
                assert classify_matrix(full, da, db) == expected
                assert (cl.controlled_from_a, cl.controlled_from_b, cl.schmidt_rank) == expected
