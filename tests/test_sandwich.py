import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import (
    Circuit,
    DegenerateRankTwoError,
    apply_circuit,
    bipartite_space,
    classify_gate,
    decompose_2xd_aform,
    decompose_bcu3,
    decompose_sandwich,
    rank2_to_controlled,
    sandwich_bound,
    validate_circuit,
    verify_decomposition,
)
from gatedecomp.matcore import PreconditionError, is_unitary, max_abs
from gatedecomp.generators import (
    haar_unitary,
    random_complex_permutation,
    random_controlled,
    random_permutation,
    swap_unitary,
)
from gatedecomp.matcore import CSD_SVD_MIN_DIM
from gatedecomp import sandwich
from gatedecomp.sandwich import (
    _angles,
    _csd_lapack,
    _csd_separated,
    _fused_completion,
    _halve,
    _probe,
    _sandwich_gates,
    _split,
    _two_by_d_core,
)

from conftest import assert_close, noisy_haar

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _b_matrix(stack: np.ndarray) -> np.ndarray:
    """Dense matrix of a B-controlled stack: branch b on the rows with B = |b>."""
    n, d, _ = stack.shape
    out = np.zeros((d * n, d * n), dtype=complex)
    k = np.arange(n)
    out.reshape(d, n, d, n)[:, k, :, k] = stack
    return out


def check_alternation(res):
    """Positions strictly increase and parity matches the controlling side."""
    last = 0
    for pos, gate in zip(res.positions, res.circuit.gates):
        assert pos > last
        last = pos
        if gate.kind != "ControlledComputational":
            continue
        if pos % 2 == 1:
            assert gate.controls == (0,), f"position {pos} should control from A"
        else:
            assert gate.controls == (1,), f"position {pos} should control from B"
    assert res.length % 2 == 1
    assert res.positions[-1] <= res.length


class TestSandwichBound:
    def test_values(self):
        assert [sandwich_bound(d) for d in range(1, 9)] == [1, 3, 7, 7, 15, 15, 15, 15]

    def test_at_most_linear(self):
        for d in range(2, 40):
            assert sandwich_bound(d) <= 4 * d - 5 or d == 2


class TestTwoByD:
    def test_identity(self):
        res = decompose_sandwich(np.eye(6), 2, 3)
        rep = verify_decomposition(np.eye(6), res.circuit)
        assert rep.max_error <= 1e-12

    def test_cnot_shortcut(self):
        res = decompose_sandwich(CNOT, 2, 2)
        rep = verify_decomposition(CNOT, res.circuit)
        assert rep.max_error <= 1e-12
        # already controlled: a single nontrivial A-side gate survives
        assert len(res.circuit.gates) == 1
        assert res.circuit.gates[0].controls == (0,)

    @pytest.mark.parametrize("db", [2, 3, 4, 5, 8])
    def test_seeded_three_gates(self, db):
        u = haar_unitary(2 * db, 40 + db)
        res = decompose_sandwich(u, 2, db)
        assert res.length == 3
        check_alternation(res)
        rep = verify_decomposition(u, res.circuit)
        assert rep.max_error <= 1e-8
        validate_circuit(res.circuit)
        # middle gate controlled from B in the computational basis
        for pos, g in zip(res.positions, res.circuit.gates):
            if pos == 2:
                cl = classify_gate(res.circuit.space, g)
                assert cl.controlled_from_b

    def test_partially_degenerate_input(self):
        # one branch pair decoupled: exercises the residual-block eigenpath
        u = np.zeros((6, 6), dtype=complex)
        u[0, 0] = 1.0
        u[3, 3] = np.exp(0.3j)
        inner = haar_unitary(4, 77)
        rows = [1, 2, 4, 5]
        u[np.ix_(rows, rows)] = inner
        assert is_unitary(u)
        res = decompose_sandwich(u, 2, 3)
        rep = verify_decomposition(u, res.circuit)
        assert rep.max_error <= 1e-8

    def test_rejects_nonunitary(self):
        with pytest.raises(PreconditionError):
            decompose_sandwich(np.ones((4, 4)), 2, 2)

    def test_db_one_is_one_gate(self):
        # a 2 x 1 unitary is one gate on A
        u = haar_unitary(2, 9)
        res = decompose_sandwich(u, 2, 1)
        assert len(res.circuit.gates) == 1
        check_alternation(res)
        assert verify_decomposition(u, res.circuit).max_error <= 1e-12


class TestAForm:
    @pytest.mark.parametrize("db", [2, 3, 4, 6, 8])
    def test_three_a_controlled_gates(self, db):
        u = haar_unitary(2 * db, 50 + db)
        c = decompose_2xd_aform(u, db)
        rep = verify_decomposition(u, c)
        assert rep.max_error <= 1e-8
        cc = [g for g in c.gates if g.kind == "ControlledComputational"]
        assert len(cc) == 3
        for g in cc:
            assert classify_gate(c.space, g).controlled_from_a
        validate_circuit(c)

    def test_already_controlled_input(self):
        u = np.kron(np.diag([1.0, 1.0]), np.eye(3)).astype(complex)
        u[3:, 3:] = haar_unitary(3, 8)
        c = decompose_2xd_aform(u, 3)
        rep = verify_decomposition(u, c)
        assert rep.max_error <= 1e-8

    def test_two_qubit_case(self):
        u = haar_unitary(4, 123)
        c = decompose_2xd_aform(u, 2)
        assert verify_decomposition(u, c).max_error <= 1e-8


class TestRank2ToControlled:
    def test_z_x_branch_structure(self):
        u = np.kron(Z, np.diag([1.0, 0.0])) + np.kron(X, np.diag([0.0, 1.0]))
        loc_l, gate, loc_r = rank2_to_controlled(u, 2, 2)
        b0 = gate.branch((0,))
        b1 = gate.branch((1,))
        # branches proportional to diag(1, -i) and diag(1, i) in some order
        norm = [b / b[0, 0] for b in (b0, b1)]
        targets = [np.diag([1.0, -1j]), np.diag([1.0, 1j])]
        match = (
            max_abs(norm[0] - targets[0]) <= 1e-8 and max_abs(norm[1] - targets[1]) <= 1e-8
        ) or (
            max_abs(norm[0] - targets[1]) <= 1e-8 and max_abs(norm[1] - targets[0]) <= 1e-8
        )
        assert match
        # the A-basis rotation involves (1, +-i)/sqrt(2)
        col = np.abs(loc_l[:, 0])
        assert_close(col, [1 / np.sqrt(2)] * 2, 1e-8)
        full = np.kron(loc_l, np.eye(2)) @ apply_circuit(
            Circuit(bipartite_space(2, 2), (gate,))
        ) @ np.kron(loc_r, np.eye(2))
        assert_close(full, u, 1e-8)

    def test_cnot_roots_are_basis_projectors(self):
        loc_l, gate, loc_r = rank2_to_controlled(CNOT, 2, 2)
        assert_close(loc_l, np.eye(2), 1e-8)
        assert_close(loc_r, np.eye(2), 1e-8)
        assert_close(gate.branch((0,)), np.eye(2), 1e-8)
        assert_close(gate.branch((1,)), X, 1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_constructed_rank2_recovery(self, seed):
        rng = np.random.default_rng(seed)
        p1 = np.diag([1.0, 0.0]).astype(complex)
        p2 = np.eye(2) - p1
        v1 = haar_unitary(2, 1000 + seed)
        v2 = haar_unitary(2, 2000 + seed)
        core = np.kron(p1, v1) + np.kron(p2, v2)
        la, lb = haar_unitary(2, 3000 + seed), haar_unitary(2, 4000 + seed)
        ra, rb = haar_unitary(2, 5000 + seed), haar_unitary(2, 6000 + seed)
        u = np.kron(la, lb) @ core @ np.kron(ra, rb)
        loc_l, gate, loc_r = rank2_to_controlled(u, 2, 2)
        full = np.kron(loc_l, np.eye(2)) @ apply_circuit(
            Circuit(bipartite_space(2, 2), (gate,))
        ) @ np.kron(loc_r, np.eye(2))
        assert_close(full, u, 1e-8)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            rank2_to_controlled(np.eye(4), 2, 2)
        with pytest.raises(PreconditionError):
            rank2_to_controlled(swap_unitary(2), 2, 2)


class TestDecomposeSandwich:
    @pytest.mark.parametrize(
        "da,expected", [(2, 3), (3, 7), (4, 7), (5, 15), (6, 15)]
    )
    def test_bound_formula(self, da, expected):
        assert sandwich_bound(da) == expected

    @pytest.mark.parametrize("da,db", [(2, 2), (3, 3), (4, 2), (5, 3), (6, 4)])
    def test_seeded_roundtrip(self, da, db):
        u = haar_unitary(da * db, da * 10 + db)
        res = decompose_sandwich(u, da, db)
        assert len(res.circuit.gates) <= res.bound == sandwich_bound(da)
        check_alternation(res)
        rep = verify_decomposition(u, res.circuit)
        assert rep.max_error <= 1e-8
        validate_circuit(res.circuit)

    def test_product_unitary_structural(self):
        a = haar_unitary(3, 1)
        b = haar_unitary(3, 2)
        u = np.kron(a, b)
        res = decompose_sandwich(u, 3, 3)
        rep = verify_decomposition(u, res.circuit)
        assert rep.max_error <= 1e-8
        for pos, g in zip(res.positions, res.circuit.gates):
            cl = classify_gate(res.circuit.space, g)
            if pos % 2 == 0:
                assert cl.controlled_from_b

    def test_block_diagonality_of_positions(self):
        u = haar_unitary(12, 99)
        res = decompose_sandwich(u, 4, 3)
        for pos, g in zip(res.positions, res.circuit.gates):
            cl = classify_gate(res.circuit.space, g)
            if pos % 2 == 1:
                assert cl.controlled_from_a
            else:
                assert cl.controlled_from_b

    def test_every_controlled_gate_rank_bounded(self):
        from gatedecomp import operator_schmidt
        from gatedecomp.gateir import gate_matrix

        u = haar_unitary(6, 55)
        res = decompose_sandwich(u, 3, 2)
        for g in res.circuit.gates:
            m = gate_matrix(res.circuit.space, g)
            rank = operator_schmidt(m, 3, 2).rank
            ctrl_dim = 3 if g.controls == (0,) else 2
            assert rank <= ctrl_dim

    def test_dim_one_sides(self):
        u = haar_unitary(3, 5)
        res = decompose_sandwich(u, 1, 3)
        assert verify_decomposition(u, res.circuit).max_error <= 1e-10
        res = decompose_sandwich(u, 3, 1)
        assert verify_decomposition(u, res.circuit).max_error <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    da=st.integers(1, 6),
    db=st.integers(1, 5),
    kind=st.sampled_from(["haar", "A", "B"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sandwich_property(da, db, kind, seed):
    if kind == "haar":
        u = haar_unitary(da * db, seed)
    else:
        u = random_controlled(da, db, seed, side=kind)
    res = decompose_sandwich(u, da, db)
    assert len(res.circuit.gates) <= sandwich_bound(da)
    for pos, g in zip(res.positions, res.circuit.gates):
        assert g.controls == ((0,) if pos % 2 else (1,))
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8


class TestBcu3:
    def test_controlled_input_trivial_factors(self):
        res = decompose_bcu3(CNOT, 2, 2)
        assert_close(res.x, CNOT, 1e-12)
        assert_close(res.w_dagger, np.eye(4), 1e-12)
        assert_close(res.v_dagger, np.eye(4), 1e-12)

    def test_swap_exact(self):
        sw = swap_unitary(2)
        res = decompose_bcu3(sw, 2, 2)
        rep = verify_decomposition(sw, res.circuit)
        assert rep.max_error <= 1e-12
        assert max(res.block_errors) <= 1e-12

    @pytest.mark.parametrize("da,db", [(4, 2), (3, 3), (2, 4)])
    def test_seeded_block_patterns(self, da, db):
        u = haar_unitary(da * db, da + 100 * db)
        res = decompose_bcu3(u, da, db)
        rep = verify_decomposition(u, res.circuit)
        assert rep.max_error <= 1e-8
        yd = res.y * db
        # X and V† block-diagonal with identity upper-left; W† supported on 2y*dB
        assert max_abs(res.x[:yd, :yd] - np.eye(yd)) <= 1e-8
        assert max_abs(res.x[:yd, yd:]) <= 1e-8
        assert max_abs(res.x[yd:, :yd]) <= 1e-8
        assert max_abs(res.v_dagger[:yd, :yd] - np.eye(yd)) <= 1e-8
        k = 2 * yd
        assert max_abs(res.w_dagger[k:, k:] - np.eye(da * db - k)) <= 1e-8


class TestStructuredInputs:
    """Permutations, controlled gates, products, diagonals, tiny couplings."""

    def _check(self, u, da, db, name):
        res = decompose_sandwich(u, da, db)
        rep = verify_decomposition(u, res.circuit, classify=False)
        assert rep.max_error <= 1e-8, name
        assert len(res.circuit.gates) <= res.bound, name

    def test_swaps_products_controlled_diagonal(self):
        self._check(swap_unitary(3), 3, 3, "swap3")
        self._check(np.kron(haar_unitary(3, 1), haar_unitary(2, 2)), 3, 2, "product")
        self._check(random_controlled(4, 3, 3, "A"), 4, 3, "ctrlA")
        self._check(random_controlled(4, 3, 3, "B"), 4, 3, "ctrlB")
        self._check(np.diag(np.exp(1j * np.arange(12))), 4, 3, "diag")
        self._check(np.eye(15, dtype=complex), 5, 3, "identity")
        self._check(np.kron(X, np.eye(3)), 2, 3, "X-tensor")

    @pytest.mark.parametrize("eps_exp", [2, 4, 6])
    def test_tiny_cross_block_coupling(self, eps_exp):
        th = 10.0 ** (-eps_exp)
        r = np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
        )
        u = np.eye(6, dtype=complex)
        u[np.ix_([0, 3], [0, 3])] = r
        assert is_unitary(u)
        res = decompose_sandwich(u, 2, 3)
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8


@pytest.mark.parametrize("noise", [3e-10, 1e-9])
@pytest.mark.parametrize("da,db", [(3, 3), (4, 2), (4, 4), (6, 5)])
@pytest.mark.parametrize("method", ["sandwich", "bcu3"])
def test_noisy_unitary_decomposes(method, da, db, noise):
    # inputs the entry check accepts are decomposed through their polar
    # factor, and the circuit still verifies against the noisy input
    decompose = {"sandwich": decompose_sandwich, "bcu3": decompose_bcu3}[method]
    for seed in range(3):
        u = noisy_haar(da * db, seed, noise)
        assert is_unitary(u, 1e-8)
        res = decompose(u, da, db)
        assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-8


@pytest.mark.parametrize("db", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["a-controlled", "swap", "mixed"])
def test_two_by_d_core_degenerate_angles(kind, db):
    """Angles 0 and pi/2: the three stacks reproduce u and every middle branch
    is the rotation [[cos, -sin], [sin, cos]].  The A-controlled input takes
    the shortcut (all angles 0); the other two go through LAPACK's CSD."""
    eye = np.eye(db, dtype=complex)
    zero = np.zeros((db, db), dtype=complex)
    swapped = np.zeros(db, dtype=bool)
    if kind == "a-controlled":
        u = random_controlled(2, db, db, "A")
    elif kind == "swap":
        u = np.block([[zero, eye], [eye, zero]])
        swapped[:] = True
    else:
        # X on A controlled by B on the odd B levels, between A-controlled gates
        swapped[1::2] = True
        cx = _b_matrix(np.array([X if s else np.eye(2) for s in swapped], dtype=complex))
        u = random_controlled(2, db, 3 * db, "A") @ cx @ random_controlled(2, db, 5 * db, "A")
    left, mid, right = _two_by_d_core(u, db)
    assert left.shape == right.shape == (2, db, db)
    assert mid.shape == (db, 2, 2)
    dense = scipy.linalg.block_diag(*left) @ _b_matrix(mid) @ scipy.linalg.block_diag(*right)
    assert_close(dense, u, 1e-12)
    c = mid[:, 0, 0]
    s = mid[:, 1, 0]
    assert_close(mid[:, 1, 1], c, 0)
    assert_close(mid[:, 0, 1], -s, 0)
    assert_close(mid.imag, np.zeros(mid.shape), 0)
    # the CSD fixes the angles but not which B level carries which one
    assert_close(np.sort(np.abs(s)), np.sort(swapped.astype(float)), 1e-12)
    assert_close(np.abs(c) ** 2 + np.abs(s) ** 2, np.ones(db), 1e-12)
    if kind == "a-controlled":
        # the shortcut's identities carry +0.0 entries, as np.eye does: a
        # -0.0 would be a distinct palette entry and change the circuit file
        eye = np.eye(db, dtype=complex)
        assert mid.tobytes() == np.stack([np.eye(2, dtype=complex)] * db).tobytes()
        assert right.tobytes() == np.stack([eye, eye]).tobytes()
        assert left.tobytes() == np.stack([u[:db, :db], u[db:, db:]]).tobytes()


# Exact kept-gate counts on structured inputs, recorded with the modified
# Gram-Schmidt completion.  A completion that spans the same spaces in
# another basis (a Householder QR of the known columns, say) still verifies
# but moves these counts: the permutation and phased-permutation rows at
# (4, 2) and (6, 4) are among those it changes.
PINNED_SANDWICH = {
    (3, 3): {"perm": 3, "phased": 3, "actrl": 1, "product": 7, "identity": 1},
    (4, 2): {"perm": 5, "phased": 5, "actrl": 1, "product": 7, "identity": 1},
    (5, 3): {"perm": 11, "phased": 11, "actrl": 1, "product": 15, "identity": 1},
    (6, 4): {"perm": 13, "phased": 13, "actrl": 1, "product": 15, "identity": 1},
    (8, 3): {"perm": 15, "phased": 15, "actrl": 1, "product": 15, "identity": 1},
    (7, 2): {"perm": 15, "phased": 15, "actrl": 1, "product": 15, "identity": 1},
    # cosine-sine steps at 2p >= CSD_SVD_MIN_DIM, which take the two-SVD
    # route on these structured inputs too
    (8, 8): {"perm": 15, "phased": 15, "actrl": 1, "product": 15, "identity": 1},
    (16, 4): {"perm": 31, "phased": 31, "actrl": 1, "bctrl": 31, "product": 31, "identity": 1},
    (12, 6): {"perm": 31, "phased": 31, "actrl": 1, "product": 31, "identity": 1},
}


def _structured(kind, da, db, seed):
    if kind == "perm":
        return random_permutation((da, db), seed).matrix()
    if kind == "phased":
        return random_complex_permutation((da, db), seed).matrix()
    if kind == "actrl":
        return random_controlled(da, db, seed, "A")
    if kind == "bctrl":
        return random_controlled(da, db, seed, "B")
    if kind == "product":
        return np.kron(haar_unitary(da, seed), haar_unitary(db, seed + 1))
    return np.eye(da * db, dtype=complex)


@pytest.mark.parametrize(
    "kind,da,db,seed,expected",
    [(k, da, db, 4, n) for (da, db), row in PINNED_SANDWICH.items() for k, n in row.items()]
    + [("perm", 6, 4, 0, 13), ("perm", 6, 4, 1, 14)],
)
def test_pinned_gate_counts(kind, da, db, seed, expected):
    u = _structured(kind, da, db, seed)
    res = decompose_sandwich(u, da, db)
    assert len(res.circuit.gates) == expected
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-12


# ---------------------------------------------------------------------------
# the cosine-sine step


def _cs_factor(theta):
    c = np.diag(np.cos(theta))
    s = np.diag(np.sin(theta))
    return np.block([[c, -s], [s, c]])


def _csd_errors(u, p, factors):
    """(reconstruction, unitarity) errors of ((U1, U2), theta, (V1h, V2h))."""
    (u1, u2), theta, (v1h, v2h) = factors
    left = scipy.linalg.block_diag(u1, u2)
    right = scipy.linalg.block_diag(v1h, v2h)
    rec = max_abs(left @ _cs_factor(theta) @ right - u)
    unit = max(max_abs(m @ m.conj().T - np.eye(p)) for m in (u1, u2, v1h, v2h))
    # zuncsd's order, which the recursion's identity stripping relies on
    assert np.all(np.diff(theta) >= 0)
    return rec, unit


def _core_errors(u, p, core):
    """(reconstruction, unitarity) errors of the core's [left, mid, right] on u."""
    left, mid, right = core
    rec = max_abs(scipy.linalg.block_diag(*left) @ _b_matrix(mid) @ scipy.linalg.block_diag(*right) - u)
    unit = max(max_abs(m @ m.conj().T - np.eye(p)) for m in (*left, *right))
    # zuncsd's order, which the recursion's identity stripping relies on
    assert np.all(np.diff(np.arctan2(mid[:, 1, 0].real, mid[:, 0, 0].real)) >= 0)
    return rec, unit


def _with_angles(theta, seed):
    """(U1 ⊕ U2) CS(theta) (V1h ⊕ V2h) with Haar blocks."""
    p = len(theta)
    u1, u2, v1h, v2h = (haar_unitary(p, seed + i) for i in range(4))
    return scipy.linalg.block_diag(u1, u2) @ _cs_factor(theta) @ scipy.linalg.block_diag(v1h, v2h)


def _csd_input(kind, p, seed=0):
    rng = np.random.default_rng(seed)
    eye = np.eye(p, dtype=complex)
    zero = np.zeros((p, p), dtype=complex)
    if kind == "haar":
        return haar_unitary(2 * p, seed)
    if kind == "swap":
        return np.block([[zero, eye], [eye, zero]])
    if kind == "identity":
        return np.eye(2 * p, dtype=complex)
    if kind == "perm":
        return random_permutation((2, p), seed).matrix()
    if kind == "phased":
        return random_complex_permutation((2, p), seed).matrix()
    if kind == "clustered":
        # three clusters of angles, each 1e-10 wide
        centres = np.array([0.3, 0.8, 1.2])[np.arange(p) % 3]
        return _with_angles(centres + 1e-10 * rng.random(p), seed)
    if kind == "near-0":
        return _with_angles(1e-9 * rng.random(p), seed)
    if kind == "near-pi/2":
        return _with_angles(np.pi / 2 - 1e-9 * rng.random(p), seed)
    if kind == "small":
        # separated angles in (0, 1e-3], whose cosines crowd 1
        return _with_angles((np.arange(p) + 0.5 + 0.4 * (rng.random(p) - 0.5)) * 1e-3 / p, seed)
    if kind == "split":
        # separated angles, a random number of them below pi/4: items of
        # this kind have different split indices
        below = int(rng.integers(0, p + 1))
        theta = np.concatenate([np.linspace(0.1, 0.7, below), np.linspace(0.9, 1.45, p - below)])
        return _with_angles(theta + 1e-3 * rng.random(p), seed)
    if kind == "edges":
        # separated angles, one of them 0 and one pi/2
        theta = np.linspace(0.0, np.pi / 2, p + 2)[1:-1]
        theta[0], theta[-1] = 0.0, np.pi / 2
        return _with_angles(theta, seed)
    # a pair straddling pi/4 by 1e-12, the split between the two column sets
    theta = rng.uniform(0, np.pi / 2, p)
    theta[:2] = np.pi / 4 + np.array([1e-12, -1e-12])[: min(p, 2)]
    return _with_angles(theta, seed)


CSD_KINDS = [
    "haar", "swap", "identity", "perm", "phased", "clustered", "near-0", "near-pi/2", "edges",
    "straddle",
]


@pytest.mark.parametrize("kind", CSD_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 16, 64, 128])
def test_core_is_accurate_on_any_input(kind, p):
    # zuncsd below the crossover and the stacked kernel from it on are
    # stable on clustered, degenerate and edge cosines
    u = _csd_input(kind, p)
    rec, unit = _core_errors(u, p, _two_by_d_core(u, p))
    assert rec <= 1e-13 and unit <= 1e-13


def _same_arrays(a, b):
    (a1, a2), at, (a3, a4) = a
    (b1, b2), bt, (b3, b4) = b
    return all(np.array_equal(x, y) for x, y in zip((a1, a2, at, a3, a4), (b1, b2, bt, b3, b4)))


def _as_core(factors):
    """``_two_by_d_core``'s [left, mid, right] for one item's cosine-sine factors."""
    (u1, u2), theta, (v1h, v2h) = factors
    return [np.stack([u1, u2]), sandwich._rotations(theta), np.stack([v1h, v2h])]


def _same_bytes(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def _separated_factors(u, p):
    """The separated route's factors of one matrix: the kernel with the phase rule."""
    svd = np.linalg.svd(u[:p, :p])
    return _csd_separated(u, p, svd, int(np.count_nonzero(svd[1] > np.sqrt(0.5))))


@pytest.mark.parametrize(
    "kind,p",
    [(k, p) for k in CSD_KINDS for p in (1, 2, 5, CSD_SVD_MIN_DIM // 2 - 1)]
    + [(k, p) for k in CSD_KINDS for p in (CSD_SVD_MIN_DIM // 2, 40)],
)
def test_core_runs_zuncsd_below_the_crossover_and_the_stacked_kernel_from_it_on(kind, p):
    """Below CSD_SVD_MIN_DIM the 2 x dB core is zuncsd bit for bit on every
    item, separated or not.  From there on every item gets the stacked
    kernel's bytes with the phase rule, separated or not.  Haar items are
    separated and the structured kinds are not; the synthetic kinds are
    separated only where their few angles are (p = 1 or 2).  An identity
    has vanishing off-diagonal blocks and is already controlled from A."""
    u = _csd_input(kind, p, seed=3)
    separated = _probe(u[None, :p, :p])[1][0]
    if kind in ("haar", "swap", "identity", "perm", "phased"):
        assert separated == (kind == "haar")
    got = _two_by_d_core(u, p)
    if kind == "identity":
        eye = np.eye(p, dtype=complex)
        want = [np.stack([u[:p, :p], u[p:, p:]]), np.stack([np.eye(2, dtype=complex)] * p), np.stack([eye, eye])]
    elif 2 * p < CSD_SVD_MIN_DIM:
        want = _as_core(scipy.linalg.cossin(u, p=p, q=p, separate=True))
    else:
        want = _as_core(_separated_factors(u, p))
    assert _same_bytes(got, want)
    assert _same_arrays(_csd_lapack(u, p), scipy.linalg.cossin(u, p=p, q=p, separate=True))


@pytest.mark.parametrize("p", [CSD_SVD_MIN_DIM // 2, 40])
def test_cossin_takes_the_two_svd_route_on_separated_cosines(p):
    """From CSD_SVD_MIN_DIM on, a Haar item of the core takes the stacked
    two-SVD kernel with V1h's row maxima real, not zuncsd."""
    u = haar_unitary(2 * p, 5)
    got = _two_by_d_core(u, p)
    assert _same_bytes(got, _as_core(_separated_factors(u, p)))
    right = got[2]
    for row in right[0]:
        top = row[np.argmax(np.abs(row))]
        assert top.real > 0 and abs(top.imag) <= 1e-15
    assert not _same_bytes(got, _as_core(scipy.linalg.cossin(u, p=p, q=p, separate=True)))


def test_cossin_falls_back_to_zuncsd_when_gesdd_fails(monkeypatch):
    """When gesdd does not converge on the core's U11 blocks, each item
    falls back to zuncsd (``_csd_lapack``)."""
    p = CSD_SVD_MIN_DIM // 2
    u = np.stack([_csd_input("clustered", p, seed=3), haar_unitary(2 * p, 5)])
    want = [scipy.linalg.cossin(m, p=p, q=p, separate=True) for m in u]

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    assert _same_arrays(_csd_lapack(u[0], p), want[0])
    got = _two_by_d_core(u, p)
    for j in range(2):
        assert _same_bytes([g[j] for g in got], _as_core(want[j]))


def test_v2h_of_items_with_different_sine_patterns():
    """Items of one split index whose tests s >= c differ (a cosine within
    round-off of 1/sqrt(2) can do it) each get their own V2h, as alone."""
    p = 4
    items = [_csd_input("haar", p, seed) for seed in (1, 2)]
    factors = []
    for u in items:
        svd = np.linalg.svd(u[:p, :p])
        factors.append(sandwich._csd_thin(u[:p, :p], u[p:, :p], *svd, int(np.count_nonzero(svd[1] > np.sqrt(0.5)))))
    u1, u2, cos, sin = (np.stack([f[i] for f in factors]) for i in range(4))
    sin[1] = np.where(sin[1] >= cos[1], -1.0, 2.0)  # the other pattern for item 1
    cos[1] = np.abs(cos[1]) + 0.5
    u12, u22 = (np.stack(b) for b in zip(*[(u[:p, p:], u[p:, p:]) for u in items]))
    got = sandwich._csd_v2h(u1, u2, cos, sin, u12, u22)
    assert not np.array_equal(sin[0] >= cos[0], sin[1] >= cos[1])
    for j in range(2):
        assert got[j].tobytes() == sandwich._csd_v2h(u1[j], u2[j], cos[j], sin[j], u12[j], u22[j]).tobytes()


KERNEL_KINDS = CSD_KINDS + ["small", "split"]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 16, 64, 128])
def test_separated_kernel_is_accurate_on_any_input(kind, p):
    """The stacked kernel with the phase rule, full form: on any input, not
    only on the separated ones the probe sends to it."""
    u = _csd_input(kind, p)
    factors = _separated_factors(u, p)
    rec, unit = _csd_errors(u, p, factors)
    assert rec <= 1e-13 and unit <= 1e-13
    # and on a stack of one, with the same bytes
    svd = [a[None] for a in np.linalg.svd(u[:p, :p])]
    (u1, u2), theta, (v1h, v2h) = _csd_separated(u[None], p, svd, int(np.count_nonzero(svd[1] > np.sqrt(0.5))))
    assert _same_arrays(factors, ((u1[0], u2[0]), theta[0], (v1h[0], v2h[0])))


def _thin_errors(r, factors):
    """(reconstruction, unitarity) errors of the thin split of R†, with theta's
    round trip as the recursion takes it."""
    u1, u2, cos, sin, v1h = factors
    theta = _angles(sin, cos)
    assert np.all(np.diff(theta) >= 0)
    col = np.vstack([(u1 * np.cos(theta)) @ v1h, (u2 * np.sin(theta)) @ v1h])
    p = len(v1h)
    return max_abs(col - r.conj().T), max(max_abs(m @ m.conj().T - np.eye(p)) for m in (u1, u2, v1h))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 16, 64, 128])
def test_fused_completion_kernel_is_accurate_on_any_input(kind, p):
    """The thin form: the split of R† for the rows R = u[:p] of any input."""
    r = _csd_input(kind, p)[:p]
    svd = np.linalg.svd(r[:, :p])
    n = int(np.count_nonzero(svd[1] > np.sqrt(0.5)))
    rec, unit = _thin_errors(r, _fused_completion(r[:, :p], r[:, p:], svd, n))
    assert rec <= 1e-13 and unit <= 1e-13


@pytest.mark.parametrize("da,db,seed", [(3, 2, 1), (4, 3, 2), (5, 4, 3), (8, 8, 4), (16, 13, 5), (24, 9, 6)])
def test_fused_completion_completes_the_rows(da, db, seed):
    """W0 = (U1 ⊕ U2) CS(θ) (V1h ⊕ -I) is unitary and its first block column
    is R†, for the rows R that a Haar input's halving step completes."""
    yd = (da // 2) * db
    _, x = sandwich._compress(haar_unitary(da * db, seed)[None], yd)
    r = x[0, :yd, : 2 * yd]
    svd, separated = _probe(r[None, :, :yd])
    assert separated[0]
    svd = [a[0] for a in svd]
    u1, u2, cos, sin, v1h = _fused_completion(r[:, :yd], r[:, yd:], svd, int(np.count_nonzero(svd[1] > np.sqrt(0.5))))
    theta = _angles(sin, cos)
    w0 = scipy.linalg.block_diag(u1, u2) @ _cs_factor(theta) @ scipy.linalg.block_diag(v1h, -np.eye(yd))
    assert max_abs(w0 @ w0.conj().T - np.eye(2 * yd)) <= 1e-13
    assert max_abs(w0[:, :yd] - r.conj().T) <= 1e-14
    assert max_abs(r @ w0 - np.eye(yd, 2 * yd)) <= 1e-13


def test_csd_lapack_raises_when_zuncsd_fails(monkeypatch):
    u = haar_unitary(4, 1)
    (u1, u2), theta, (v1h, v2h) = _csd_lapack(u, 2)

    def failing(*args, **kwargs):
        return None, None, None, None, theta, u1, u2, v1h, v2h, 3

    monkeypatch.setattr(sandwich, "_ZUNCSD", failing)
    with pytest.raises(np.linalg.LinAlgError):
        _csd_lapack(u, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.integers(1, CSD_SVD_MIN_DIM),
    kind=st.sampled_from(CSD_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_core_property(p, kind, seed):
    """The 2 x dB core on both sides of the crossover (2p = CSD_SVD_MIN_DIM)."""
    u = _csd_input(kind, p, seed)
    rec, unit = _core_errors(u, p, _two_by_d_core(u, p))
    assert rec <= 1e-13 and unit <= 1e-13


# ---------------------------------------------------------------------------
# the recursion on stacks


STACK_KINDS = ["haar", "actrl", "bctrl", "identity", "product", "phased"]


def _stack_item(kind, da, db, seed):
    if kind == "haar":
        return haar_unitary(da * db, seed)
    if kind == "actrl":
        return random_controlled(da, db, seed, "A")
    if kind == "bctrl":
        return random_controlled(da, db, seed, "B")
    if kind == "identity":
        return np.eye(da * db, dtype=complex)
    if kind == "product":
        return np.kron(haar_unitary(da, seed), haar_unitary(db, seed + 1))
    return random_complex_permutation((da, db), seed).matrix()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    da=st.integers(1, 6),
    db=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_gives_the_bytes_of_single_calls(da, db, kinds, seed):
    """Every item of a mixed stack gets, gate by gate, the bytes it gets alone.

    The mix sends some items of one 2 x dB node through the cosine-sine step
    and others through the already-controlled route, and gives the items'
    completions different skipped candidates."""
    u = np.stack([_stack_item(kind, da, db, seed + j) for j, kind in enumerate(kinds)])
    stacked = _sandwich_gates(u, da, db)
    assert len(stacked) == sandwich_bound(da)
    for j in range(len(u)):
        alone = _sandwich_gates(u[j][None], da, db)
        assert len(alone) == len(stacked)
        for g, h in zip(stacked, alone):
            assert g.shape[1:] == h.shape[1:] and len(h) == 1
            assert g[j].tobytes() == h[0].tobytes()


def _halve_through_split(u, da, db):
    """``_halve`` as it stood before the separated route: the Gram-Schmidt
    completion of ``_split`` for every item, then the core on W0†."""
    k, y = len(u), da // 2
    yd = y * db
    vp, w0, x = _split(u, da, db)
    c_g, t_g, d_g = _two_by_d_core(w0.conj().transpose(0, 2, 1), yd)
    x1 = x[:, :yd, :yd] @ c_g[:, 0]
    x2 = np.concatenate([x[:, yd:, yd : 2 * yd] @ c_g[:, 1], x[:, yd:, 2 * yd :]], axis=2)
    vh = vp.conj().transpose(0, 2, 1)
    y1 = d_g[:, 0]
    y2 = np.concatenate([d_g[:, 1] @ vh[:, :yd], vh[:, yd:]], axis=1)
    rr = np.arange(y)[:, None] + y * np.arange(2)
    mid = sandwich._eye_stack(k, db, da)
    mid[:, :, rr[:, :, None], rr[:, None, :]] = t_g.reshape(k, y, db, 2, 2).transpose(0, 2, 1, 3, 4)
    if da % 2 == 0:
        return [np.concatenate([x1, y1, x2, y2])], mid
    return [np.concatenate([x1, y1]), np.concatenate([x2, y2])], mid


@pytest.mark.parametrize("kind", ["perm", "phased", "actrl", "identity", "product"])
@pytest.mark.parametrize("da,db", [(3, 3), (4, 2), (5, 3), (8, 8), (12, 6), (16, 4)])
def test_unseparated_halving_keeps_the_gram_schmidt_route(kind, da, db):
    """Structured inputs are unseparated at every level: ``_halve`` gives them
    the bytes of the Gram-Schmidt route, with zuncsd below the crossover
    (2 * yd < CSD_SVD_MIN_DIM, the first three shapes) and the two-SVD
    kernel from there on (the last three)."""
    u = _structured(kind, da, db, 4)[None]
    yd = (da // 2) * db
    assert not _probe(sandwich._compress(u, yd)[1][:, :yd, :yd])[1].any()
    children, mid = _halve(u, da, db)
    want_children, want_mid = _halve_through_split(u, da, db)
    assert _same_bytes(children + [mid], want_children + [want_mid])


@pytest.mark.parametrize("da,db", [(3, 3), (4, 2), (5, 3), (8, 8), (12, 6), (16, 4)])
def test_b_controlled_halving_takes_the_separated_route(da, db):
    """A B-controlled input is structured but separated at the top level:
    its U11 block holds the y x y corners of every branch, whose cosines
    differ.  ``_halve`` gives it the separated route, and the level
    rebuilds it: u = (X1 ⊕ X2) mid (Y1 ⊕ Y2)."""
    u = _structured("bctrl", da, db, 4)[None]
    yd = (da // 2) * db
    assert _probe(u[:, :yd, :yd])[1].all()
    children, mid = _halve(u, da, db)
    x1, y1, x2, y2 = [m for c in children for m in c]
    rebuilt = scipy.linalg.block_diag(x1, x2) @ _b_matrix(mid[0]) @ scipy.linalg.block_diag(y1, y2)
    assert max_abs(rebuilt - u[0]) <= 1e-13


def _separated_split_indices(u, p):
    """The split indices of the separated items of a (k, 2p, 2p) stack."""
    c = np.linalg.svd(u[:, :p, :p], compute_uv=False)
    keep = sandwich._separated(c)
    return set(np.count_nonzero(c[keep] > np.sqrt(0.5), axis=1).tolist()), keep


CORE_MIX = ["haar", "split", "split", "perm", "phased", "clustered", "identity", "straddle"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 3, 5, 16, 17, 20]),
    kinds=st.lists(st.sampled_from(CORE_MIX), min_size=2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_core_stack_gives_the_bytes_of_single_calls(p, kinds, seed):
    """Items of one core stack that take different routes (zuncsd below
    the crossover; from it on the stacked kernel, separated or not, with
    several split indices, or already controlled) each get the bytes they
    get alone."""
    u = np.stack([_csd_input(kind, p, seed + j) for j, kind in enumerate(kinds)])
    _assert_core_gives_single_bytes(u, p)


def _assert_core_gives_single_bytes(u, p):
    stacked = _two_by_d_core(u, p)
    for j in range(len(u)):
        assert _same_bytes([g[j] for g in stacked], _two_by_d_core(u[j], p))


def test_core_stack_mixes_routes_and_split_indices():
    """One fixed mix that certainly holds separated, unseparated and
    already controlled items, and three split indices."""
    p = CSD_SVD_MIN_DIM // 2
    kinds = ["split", "haar", "perm", "split", "identity", "split", "phased", "haar", "split"]
    u = np.stack([_csd_input(kind, p, 40 + j) for j, kind in enumerate(kinds)])
    ks, separated = _separated_split_indices(u, p)
    assert len(ks) >= 3 and separated.any() and not separated.all()
    _assert_core_gives_single_bytes(u, p)


def _assert_halving_gives_single_bytes(u, da, db):
    """Every item's children and middle gate from one level on the stack u
    have the bytes of that level on the item alone."""
    children, mid = _halve(u, da, db)
    k = len(u)
    for j in range(k):
        alone, alone_mid = _halve(u[j][None], da, db)
        assert mid[j].tobytes() == alone_mid[0].tobytes()
        for c, a in zip(children, alone, strict=True):
            for q in range(len(a)):
                assert c[q * k + j].tobytes() == a[q].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    da=st.integers(3, 6),
    db=st.integers(2, 4),
    kinds=st.lists(st.sampled_from(["haar", "haar", "phased", "actrl", "product"]), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_halving_stack_gives_the_bytes_of_single_calls(da, db, kinds, seed):
    """One level on a stack of separated items of several split indices and
    unseparated ones: every item's children and middle gate are its bytes
    alone."""
    _assert_halving_gives_single_bytes(
        np.stack([_stack_item(kind, da, db, seed + j) for j, kind in enumerate(kinds)]), da, db
    )


def test_halving_stack_mixes_routes_and_split_indices():
    """A fixed stack of Haar and structured 6 x 3 items: the level takes
    both routes and runs at least two split-index groups."""
    da, db = 6, 3
    kinds = ["haar", "phased", "haar", "haar", "actrl", "haar", "haar", "product", "haar"]
    u = np.stack([_stack_item(kind, da, db, 70 + j) for j, kind in enumerate(kinds)])
    yd = (da // 2) * db
    r1 = sandwich._compress(u, yd)[1][:, :yd, :yd]
    c = np.linalg.svd(r1, compute_uv=False)
    separated = sandwich._separated(c)
    assert separated.any() and not separated.all()
    assert len(set(np.count_nonzero(c[separated] > np.sqrt(0.5), axis=1).tolist())) >= 2
    _assert_halving_gives_single_bytes(u, da, db)


@pytest.mark.parametrize("da,db", [(8, 2), (4, 5), (5, 3), (7, 2)])
def test_halving_stack_mixes_routes_at_even_and_odd_da(da, db):
    """The same at even da (separated items take no V') and odd da (one
    QR), with an identity item as well."""
    kinds = ["haar", "phased", "haar", "haar", "actrl", "haar", "haar", "product", "haar", "identity"]
    u = np.stack([_stack_item(kind, da, db, 70 + j) for j, kind in enumerate(kinds)])
    yd = (da // 2) * db
    c = np.linalg.svd(u[:, :yd, :yd], compute_uv=False)
    separated = sandwich._separated(c)
    assert separated.any() and not separated.all()
    assert len(set(np.count_nonzero(c[separated] > np.sqrt(0.5), axis=1).tolist())) >= 2
    _assert_halving_gives_single_bytes(u, da, db)


def _count_compress_rows(monkeypatch):
    """The shapes of the blocks that ``compress_rows`` is called on, as they come."""
    calls = []
    compress_rows = sandwich.compress_rows

    def counting(b, t):
        calls.append(np.shape(b))
        return compress_rows(b, t)

    monkeypatch.setattr(sandwich, "compress_rows", counting)
    return calls


@pytest.mark.parametrize(
    "kind,da,db,expected",
    [
        ("haar", 16, 13, []),
        # one call per level on all of its nodes, as before separated nodes
        # skipped V'
        ("perm", 8, 8, [(1, 32, 32), (4, 16, 16)]),
        ("phased", 12, 6, [(1, 36, 36), (4, 18, 18), (16, 6, 12)]),
    ],
)
def test_compress_rows_runs_on_unseparated_nodes_only(monkeypatch, kind, da, db, expected):
    """Separated nodes take no SVD for V': none on even da, one QR on odd
    da.  Structured inputs are unseparated at every level and keep it."""
    calls = _count_compress_rows(monkeypatch)
    u = haar_unitary(da * db, 4) if kind == "haar" else _structured(kind, da, db, 4)
    res = decompose_sandwich(u, da, db)
    assert calls == expected
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-12


@pytest.mark.parametrize("da,db,seed", [(3, 2, 1), (3, 5, 2), (5, 3, 3), (5, 4, 4), (7, 2, 5), (7, 3, 6)])
def test_odd_separated_halving_takes_v_prime_from_one_qr(monkeypatch, da, db, seed):
    """On odd da a separated node's V' is the Q of the complete QR of
    B† = u[:yd, yd:]†: unitary, and (u V)[:yd, 2*yd:] = B Q[:, yd:] vanishes."""
    u = haar_unitary(da * db, seed)[None]
    yd = (da // 2) * db
    assert _probe(u[:, :yd, :yd])[1].all()
    seen = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        q, r = qr(a, mode=mode)
        if a.shape[-2:] == (da * db - yd, yd):
            seen.append((a, q))
        return q, r

    calls = _count_compress_rows(monkeypatch)
    monkeypatch.setattr(np.linalg, "qr", recording)
    _halve(u, da, db)
    assert calls == []
    ((bh, vp),) = seen
    assert bh.tobytes() == u[0, :yd, yd:].conj().T.tobytes()
    assert max_abs(vp @ vp.conj().T - np.eye(da * db - yd)) <= 1e-14
    assert max_abs(bh.conj().T @ vp[:, yd:]) <= 1e-13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(da=st.integers(2, 9), db=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_haar_sandwich_property(da, db, seed):
    """Haar inputs verify to 1e-12 with exactly g(da) gates, none stripped.
    With db = 1 the input is one B-controlled gate and the rest identities."""
    u = haar_unitary(da * db, seed)
    res = decompose_sandwich(u, da, db)
    assert len(res.circuit.gates) == (1 if db == 1 else sandwich_bound(da))
    assert verify_decomposition(u, res.circuit, classify=False).max_error <= 1e-12


def test_single_matrix_helpers_match_their_stacks():
    """A 2-D argument to the core or the split gives item 0 of the stack of one."""
    u = haar_unitary(12, 8)
    for got, want in zip(_two_by_d_core(u, 6), _two_by_d_core(u[None], 6)):
        assert got.tobytes() == want[0].tobytes()
    for got, want in zip(_split(u, 4, 3), _split(u[None], 4, 3)):
        assert got.tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# the 3-A form


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    db=st.integers(1, 6),
    kind=st.sampled_from(STACK_KINDS + ["perm"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_aform_property(db, kind, seed):
    if kind == "perm":
        u = random_permutation((2, db), seed).matrix()
    else:
        u = _stack_item(kind, 2, db, seed)
    c = decompose_2xd_aform(u, db)
    validate_circuit(c)
    assert [g.kind for g in c.gates] == [
        "ControlledComputational", "Local", "ControlledComputational", "Local",
        "ControlledComputational",
    ]
    for g in c.gates[::2]:
        assert g.controls == (0,)
        assert classify_gate(c.space, g).controlled_from_a
    assert verify_decomposition(u, c, classify=False).max_error <= 1e-12
