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
from gatedecomp import gateir
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


def _apply_in_order(dims, lowered, state):
    """One gate on a (prod(dims), k) state, with the state's axes put back in
    order after it: the kernel as it stood before the state kept the last
    gate's axis order."""
    controls, targets, palette, index = lowered
    a = state.reshape(*dims, -1)
    rest = [ax for ax in range(a.ndim) if ax not in controls and ax not in targets]
    order = [*controls, *targets, *rest]
    nc = math.prod(dims[ax] for ax in controls)
    dt = math.prod(dims[ax] for ax in targets)
    x = np.matmul(palette[index], a.transpose(order).reshape(nc, dt, -1))
    shape = [dims[ax] for ax in order[:-1]] + [-1]
    return x.reshape(shape).transpose(np.argsort(order)).reshape(state.shape)


def _product_circuits():
    from gatedecomp import compile_to_standard, decompose_perm3, decompose_sandwich
    from gatedecomp.generators import random_permutation
    from gatedecomp.multiparty import decompose_4party, decompose_multiparty
    from gatedecomp.protocols import emit_backup_protocol, pp_expansion

    perm = random_permutation((3, 4), 2).matrix()
    return {
        "sandwich": decompose_sandwich(haar_unitary(12, 1), 4, 3).circuit,
        "multi": decompose_multiparty(haar_unitary(12, 2), (2, 3, 2)).circuit,
        "party4": decompose_4party(haar_unitary(16, 3), (2, 2, 2, 2)).circuit,
        "std": compile_to_standard(haar_unitary(6, 4), 2, 3).circuit,
        "perm3": decompose_perm3(random_permutation((4, 3), 5)).circuit,
        "backup": emit_backup_protocol(perm, pp_expansion(perm, 3, 4), 3, 4).expanded,
    }


@pytest.mark.parametrize("name", ["sandwich", "multi", "party4", "std", "perm3", "backup"])
def test_product_has_the_bytes_of_the_gate_by_gate_kernel(name):
    """The state left in each gate's axis order gives the product, and each
    embedded gate, the bytes of putting the axes back after every gate."""
    c = _product_circuits()[name]
    dims = c.space.dims
    want = np.eye(c.space.total_dim, dtype=complex)
    for g in reversed(c.gates):
        want = _apply_in_order(dims, gateir._lower(dims, g), want)
    assert apply_circuit(c).tobytes() == want.tobytes()
    eye = np.eye(c.space.total_dim, dtype=complex)
    for g in c.gates[:4]:
        assert gate_matrix(c.space, g).tobytes() == _apply_in_order(dims, gateir._lower(dims, g), eye).tobytes()


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


# ---------------------------------------------------------------------------
# the batched permutation decode: gates are lowered and decoded in batches of
# DECODE_CHUNK palette values, whatever the circuit's length


DIMS3 = (4, 4, 4)  # two target axes give 16 x 16 branches of 256 values


def _perm_branch(rng, d, phases=PHASES):
    m = np.zeros((d, d), dtype=complex)
    m[rng.permutation(d), np.arange(d)] = rng.choice(phases, size=d)
    return m


def _long_circuit(seed: int, n_gates: int, generic_at: int | None = None) -> Circuit:
    """Controlled permutations on (4, 4, 4), with a CNOT or a local gate every fifth.

    Phases come from ``PHASES``, except for the gate at ``generic_at``,
    whose phases are anywhere on the unit circle.
    """
    rng = np.random.default_rng(seed)
    gates = []
    for i in range(n_gates):
        phases = np.exp(2j * np.pi * rng.random(8)) if i == generic_at else PHASES
        ctrl = int(rng.integers(3))
        if i % 5 == 4 and i != generic_at:
            a, b = rng.permutation(3)[:2]
            gates.append(CnotGate(int(a), (0, 1), int(b), (1, 3)) if i % 2 else
                         LocalGate(ctrl, _perm_branch(rng, 4)))
            continue
        targets = tuple(ax for ax in range(3) if ax != ctrl)
        k = int(rng.integers(1, 5))
        palette = np.stack([_perm_branch(rng, 16, phases) for _ in range(k)])
        gates.append(ControlledGate((ctrl,), targets, palette, rng.integers(k, size=4)))
    return Circuit(multiparty_space(DIMS3), tuple(gates))


def _entries(c: Circuit, side: int) -> int:
    return sum(len(g.palette) for g in c.gates if isinstance(g, ControlledGate) and g.palette.shape[1] == side)


def _read_out(c: Circuit):
    t, p = circuit_permutation(c)
    rebuilt = np.zeros((t.size, t.size), dtype=complex)
    rebuilt[t, np.arange(t.size)] = p
    return t, p, rebuilt


class TestBatchedPermutationDecode:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10**6))
    def test_long_circuits_match_dense_exactly(self, seed, where):
        # one gate has phases off {1, i, -1, -i}: a product of two such
        # phases rounds differently in BLAS and in one complex multiply,
        # while a product with 1, i, -1 or -i is exact either way
        n = 3 * gateir.DECODE_CHUNK // 256  # gates of 2.5 entries on average: several batches
        c = _long_circuit(seed, n, generic_at=where % n)
        assert _entries(c, 16) > 2 * gateir.DECODE_CHUNK // 256
        _, p, rebuilt = _read_out(c)
        assert np.array_equal(rebuilt, apply_circuit(c))
        assert (np.abs(np.abs(p) - 1) <= 1e-12).all()

    @pytest.mark.parametrize("chunk", [1, 40, 300, 4096])
    def test_any_chunk_size_gives_the_same_tables(self, monkeypatch, chunk):
        # 1 and 40 make every gate a batch; 300 ends a batch at each 16 x 16 gate
        c = _long_circuit(5, 60, generic_at=7)
        want_t, want_p = circuit_permutation(c)
        monkeypatch.setattr(gateir, "DECODE_CHUNK", chunk)
        t, p = circuit_permutation(c)
        assert np.array_equal(t, want_t) and np.array_equal(p, want_p)

    @staticmethod
    def _boundary_circuit(k: int, bad_gate: int, bad_entry: int, bad: str) -> Circuit:
        """Gates of k distinct 16 x 16 entries; entry ``bad_entry`` of gate ``bad_gate`` is no permutation."""
        rng = np.random.default_rng(11)
        gates = []
        for i in range(bad_gate + 3):
            palette = np.stack([_perm_branch(rng, 16) for _ in range(k)])
            if i == bad_gate:
                m = palette[bad_entry]
                if bad == "two_in_a_column":
                    m[(np.flatnonzero(m[:, 0])[0] + 1) % 16, 0] = 1.0
                elif bad == "empty_column":
                    m[:, 3] = 0.0
                elif bad == "two_in_a_row":  # one nonzero per column still, d in all
                    m[:, 3] = 0.0
                    m[np.flatnonzero(m[:, 0])[0], 3] = 1.0
                else:
                    m[m != 0] *= 1 + 2e-12
            gates.append(ControlledGate((0,), (1, 2), palette, np.arange(4) % k))
        return Circuit(multiparty_space(DIMS3), tuple(gates))

    @pytest.mark.parametrize("bad", ["two_in_a_column", "empty_column", "two_in_a_row", "off_the_circle"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("entry", ["first", "last"])
    @pytest.mark.parametrize("where", ["batch_end", "batch_start", "second_batch_end"])
    def test_a_bad_gate_at_a_batch_boundary_is_named(self, bad, k, entry, where):
        per_batch = -(-gateir.DECODE_CHUNK // (256 * k))  # a batch ends once it holds DECODE_CHUNK values
        gate = {"batch_end": per_batch - 1, "batch_start": per_batch, "second_batch_end": 2 * per_batch - 1}[where]
        c = self._boundary_circuit(k, gate, 0 if entry == "first" else k - 1, bad)
        assert [len(g.palette) for g in c.gates] == [k] * len(c.gates)
        with pytest.raises(CircuitError, match=rf"^gate {gate}: gate is not a complex permutation$"):
            circuit_permutation(c)

    def test_the_first_bad_gate_is_named_across_branch_sizes(self):
        good = _long_circuit(3, 12).gates
        bad_small = LocalGate(0, haar_unitary(4, 1))  # 4 x 4 branches
        bad_large = ControlledGate((0,), (1, 2), haar_unitary(16, 2)[None], np.zeros(4, int))
        for gates, first in [((*good[:3], bad_large, *good[3:9], bad_small), 3),
                             ((*good[:3], bad_small, *good[3:9], bad_large), 3)]:
            with pytest.raises(CircuitError, match=rf"^gate {first}: gate is not a complex permutation$"):
                circuit_permutation(Circuit(multiparty_space(DIMS3), gates))

    def test_a_bad_gate_before_one_that_fails_to_lower_is_named_first(self):
        good = _long_circuit(4, 6).gates
        bad = LocalGate(0, haar_unitary(4, 1))
        unfit = ControlledGate((0,), (1,), np.eye(4)[None], np.zeros(3, int))  # index of 3 on dim 4
        space = multiparty_space(DIMS3)
        with pytest.raises(CircuitError, match=r"^gate 2: gate is not a complex permutation$"):
            circuit_permutation(Circuit(space, (*good[:2], bad, *good[2:4], unfit)))
        with pytest.raises(CircuitError, match=r"^gate 2: control index has shape"):
            circuit_permutation(Circuit(space, (*good[:2], unfit, *good[2:4], bad)))

    @pytest.mark.parametrize("scale, ok", [(1 + 5e-13, True), (1 - 5e-13, True), (1 + 2e-12, False), (1 - 2e-12, False)])
    def test_unit_modulus_edge(self, scale, ok):
        value = scale * np.exp(0.3j)
        gates = (cnot_gate(), LocalGate(1, np.array([[0, 1], [value, 0]])), cnot_gate())
        c = Circuit(bipartite_space(2, 2), gates)
        if ok:
            _, p, rebuilt = _read_out(c)
            assert value in p.tolist() and np.array_equal(rebuilt, apply_circuit(c))
        else:
            with pytest.raises(CircuitError, match=r"^gate 1: gate is not a complex permutation$"):
                circuit_permutation(c)
