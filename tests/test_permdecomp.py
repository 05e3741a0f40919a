import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import (
    AbsolutelySingular,
    ComplexPermutation,
    apply_stages,
    circuit_permutation,
    decompose_multiparty_perm,
    decompose_perm3,
    decompose_perm3_classical,
    find_sdr,
)
from gatedecomp.generators import (
    random_complex_permutation,
    random_permutation,
    swap_permutation,
)
from gatedecomp.matcore import PreconditionError, as_matrix, checked_dims
from gatedecomp.permdecomp import _perm3_stages, block_pattern


def brute_force_sdr(pattern):
    """Lexicographically smallest SDR by exhaustive search, or None."""
    p = np.asarray(pattern, dtype=bool)
    n = p.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        if all(p[r, perm[r]] for r in range(n)):
            if best is None or list(perm) < list(best):
                best = perm
    return list(best) if best is not None else None


class TestFindSdr:
    def test_identity_pattern(self):
        assert find_sdr(np.eye(3, dtype=bool)) == [0, 1, 2]

    def test_documented_three_by_three(self):
        p = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert find_sdr(p) == [0, 2, 1]
        assert brute_force_sdr(p) == [0, 2, 1]

    def test_hall_violation_witness(self):
        res = find_sdr([[1, 0], [1, 0]])
        assert isinstance(res, AbsolutelySingular)
        assert res.rows == (0, 1)
        assert res.cols == (1,)
        # s + t exceeds the pattern size
        assert len(res.rows) + len(res.cols) == 3

    def test_witness_certifies_zero_block(self):
        p = np.array(
            [[1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]], dtype=bool
        )
        res = find_sdr(p)
        assert isinstance(res, AbsolutelySingular)
        for r in res.rows:
            for c in res.cols:
                assert not p[r, c]
        assert len(res.rows) + len(res.cols) > 4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_matches_brute_force(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        p = np.array(bits, dtype=bool).reshape(n, n)
        got = find_sdr(p)
        want = brute_force_sdr(p)
        if want is None:
            assert isinstance(got, AbsolutelySingular)
            nb = {c for r in got.rows for c in range(n) if p[r, c]}
            assert len(nb) < len(got.rows)
        else:
            assert got == want

    @pytest.mark.parametrize("seed", range(20))
    def test_succeeds_on_permutation_patterns(self, seed):
        cp = random_permutation((5, 3), seed)
        p = block_pattern(cp.targets, 5, 3)
        res = find_sdr(p)
        assert not isinstance(res, AbsolutelySingular)


# ---------------------------------------------------------------------------
# references: the SDR as one full Kuhn matching per (row, candidate column),
# and the stage tables as one recursion per B level, as both were written
# before the SDR took exchange paths and the stages became one loop


def reference_find_sdr(pattern):
    p = np.asarray(pattern, dtype=bool)
    n = p.shape[0]
    adj = [list(np.flatnonzero(p[r])) for r in range(n)]

    def kuhn_match(rows, allowed):
        match_col = {}

        def augment(r, seen):
            for c in adj[r]:
                if c not in allowed or c in seen:
                    continue
                seen.add(c)
                if c not in match_col or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
            return False

        for r in rows:
            augment(r, set())
        return match_col

    match_col = kuhn_match(list(range(n)), set(range(n)))
    if len(match_col) < n:
        matched_rows = set(match_col.values())
        start = next(r for r in range(n) if r not in matched_rows)
        reach_rows, reach_cols, frontier = {start}, set(), [start]
        while frontier:
            nxt = []
            for r in frontier:
                for c in adj[r]:
                    if c in reach_cols:
                        continue
                    reach_cols.add(c)
                    owner = match_col.get(c)
                    if owner is not None and owner not in reach_rows:
                        reach_rows.add(owner)
                        nxt.append(owner)
            frontier = nxt
        cols = tuple(c for c in range(n) if c not in reach_cols)
        return AbsolutelySingular(tuple(sorted(reach_rows)), cols)
    assign, used = [], set()
    for r in range(n):
        for c in adj[r]:
            if c in used:
                continue
            rest = list(range(r + 1, n))
            if len(kuhn_match(rest, set(range(n)) - used - {c})) == len(rest):
                assign.append(int(c))
                used.add(c)
                break
    return assign


def reference_perm3_stages(out_a, out_b, da, db):
    if db == 1:
        sigma = np.zeros((da, 1), dtype=np.int64)
        return sigma, np.array([out_a[:, 0]]), sigma.copy()
    pattern = np.zeros((da, da), dtype=bool)
    for k in range(da):
        for c in range(db):
            pattern[out_a[k, c], k] = True
    sdr = reference_find_sdr(pattern)

    def swap(i, j):
        p = np.arange(db)
        p[i], p[j] = p[j], p[i]
        return p

    def invert(perm):
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        return inv

    v_stage = np.tile(np.arange(db), (da, 1))
    w_stage = np.tile(np.arange(db), (da, 1))
    for j in range(da):
        k = sdr[j]
        r_star, c_star = min((int(out_b[k, c]), c) for c in range(db) if out_a[k, c] == j)
        v_stage[j] = swap(0, r_star)
        w_stage[k] = swap(0, c_star)
    up_a, up_b = np.empty_like(out_a), np.empty_like(out_b)
    for a in range(da):
        for b in range(db):
            ja, jb = out_a[a, w_stage[a][b]], out_b[a, w_stage[a][b]]
            up_a[a, b], up_b[a, b] = ja, v_stage[ja][jb]
    x_perm = np.empty(da, dtype=np.int64)
    for j in range(da):
        x_perm[sdr[j]] = j
    s1, t2, s3 = reference_perm3_stages(up_a[:, 1:], up_b[:, 1:] - 1, da, db - 1)
    sigma1 = np.empty((da, db), dtype=np.int64)
    sigma3 = np.empty((da, db), dtype=np.int64)
    tau2 = np.empty((db, da), dtype=np.int64)
    for a in range(da):
        sigma1[a] = invert(v_stage[a])[np.concatenate(([0], s1[a] + 1))]
        sigma3[a] = np.concatenate(([0], s3[a] + 1))[invert(w_stage[a])]
    tau2[0] = x_perm
    tau2[1:] = t2
    return sigma1, tau2, sigma3


def assert_same_sdr(pattern):
    got, want = find_sdr(pattern), reference_find_sdr(pattern)
    if isinstance(want, AbsolutelySingular):
        assert isinstance(got, AbsolutelySingular)
        assert (got.rows, got.cols) == (want.rows, want.cols)
    else:
        assert got == want


# the benchmark pool's stratified sizes: each party dimension 2..16 once
POOL_SIZES = [(2 + i, 2 + (7 * i) % 15) for i in range(15)]


class TestFindSdrAgainstReference:
    @pytest.mark.parametrize("n", range(7, 17))
    def test_random_patterns(self, n):
        rng = np.random.default_rng(n)
        for density in (0.1, 0.2, 0.3, 0.5, 0.8):
            for _ in range(6):
                assert_same_sdr(rng.random((n, n)) < density)

    @pytest.mark.parametrize("n", range(7, 17))
    def test_patterns_holding_a_planted_matching(self, n):
        # always feasible, with many smaller columns to try and exchange
        rng = np.random.default_rng(100 + n)
        for density in (0.05, 0.15, 0.3):
            for _ in range(6):
                p = rng.random((n, n)) < density
                p[np.arange(n), rng.permutation(n)] = True
                assert_same_sdr(p)

    @pytest.mark.parametrize("dims", POOL_SIZES, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_block_patterns_of_pool_permutations(self, dims):
        for seed in range(4):
            cp = random_permutation(dims, seed)
            assert_same_sdr(block_pattern(cp.targets, *dims))

    def test_long_exchange_chain_needs_no_recursion(self):
        # row r holds {r, r + 1} and the last row {0}: Kuhn's search from the
        # last row walks an augmenting path through every row
        n = 1500
        p = np.zeros((n, n), dtype=bool)
        p[np.arange(n - 1), np.arange(n - 1)] = True
        p[np.arange(n - 1), np.arange(1, n)] = True
        p[n - 1, 0] = True
        assert find_sdr(p) == list(range(1, n)) + [0]


class TestStagesAgainstReference:
    @pytest.mark.parametrize("da", range(1, 10))
    def test_stage_tables_on_a_dims_grid(self, da):
        for db in range(1, 10):
            for seed in range(2):
                cp = random_permutation((da, db), 10 * da + db + 1000 * seed)
                out_a, out_b = np.divmod(np.asarray(cp.targets, dtype=np.int64).reshape(da, db), db)
                got = _perm3_stages(out_a, out_b, da, db)
                want = reference_perm3_stages(out_a, out_b, da, db)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w)


class TestLargePartyDimensions:
    """Deep enough that one Python frame per B level or per path step would
    exceed the default recursion limit of 1000."""

    def test_many_b_levels(self):
        cp = random_permutation((2, 1500), 1)
        assert exact_equal(decompose_perm3(cp).circuit, cp)

    def test_long_augmenting_path(self):
        # block k sends (k, 0) -> (k, 1) and (k, 1) -> (k - 1, 0): the block
        # pattern is a cycle, and the matching's last row augments along all of it
        n = 1500
        targets = [0] * (2 * n)
        for k in range(n):
            targets[2 * k] = 2 * k + 1
            targets[2 * k + 1] = 2 * ((k - 1) % n)
        cp = ComplexPermutation((n, 2), tuple(targets), (1.0,) * (2 * n))
        assert exact_equal(decompose_perm3(cp).circuit, cp)


def exact_equal(circuit, cp):
    t, p = circuit_permutation(circuit)
    if tuple(int(x) for x in t) != tuple(cp.targets):
        return False
    return all(p[i] == cp.phases[i] for i in range(len(p)))


class TestPerm3:
    def test_product_permutation_middle_trivial(self):
        # P_A (x) P_B: the middle stage has no control dependence (all
        # branches equal P_A; identity when P_A is)
        pa = [1, 2, 0]
        pb = [1, 0]
        targets = tuple(pa[a] * 2 + pb[b] for a in range(3) for b in range(2))
        cp = ComplexPermutation((3, 2), targets, (1.0,) * 6)
        ps = decompose_perm3(cp)
        assert exact_equal(ps.circuit, cp)
        assert all(np.array_equal(ps.tau2[b], ps.tau2[0]) for b in range(2))

    def test_b_local_permutation_middle_identity(self):
        pb = [2, 0, 1]
        targets = tuple(a * 3 + pb[b] for a in range(2) for b in range(3))
        cp = ComplexPermutation((2, 3), targets, (1.0,) * 6)
        ps = decompose_perm3(cp)
        assert exact_equal(ps.circuit, cp)
        assert np.array_equal(ps.tau2, np.tile(np.arange(2), (3, 1)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_three_gates(self, d):
        cp = swap_permutation(d)
        ps = decompose_perm3(cp)
        assert len(ps.circuit.gates) == 3
        assert exact_equal(ps.circuit, cp)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_5x4_exact(self, seed):
        cp = random_permutation((5, 4), seed)
        ps = decompose_perm3(cp)
        assert len(ps.circuit.gates) == 3
        assert exact_equal(ps.circuit, cp)

    @pytest.mark.parametrize("seed", range(5))
    def test_complex_phases_absorbed(self, seed):
        cp = random_complex_permutation((3, 3), seed)
        ps = decompose_perm3(cp)
        assert exact_equal(ps.circuit, cp)

    def test_branches_are_permutations(self):
        cp = random_permutation((4, 4), 3)
        ps = decompose_perm3(cp)
        for g in ps.circuit.gates:
            for _, m in g.branches:
                b = np.abs(m)
                assert np.array_equal(b, b.astype(bool).astype(float))
                assert (b.sum(axis=0) == 1).all() and (b.sum(axis=1) == 1).all()

    def test_alternation(self):
        cp = random_permutation((3, 5), 8)
        ps = decompose_perm3(cp)
        controls = [g.controls for g in ps.circuit.gates]
        assert controls == [(0,), (1,), (0,)]


class TestClassicalMode:
    def test_identity_table(self):
        pairs = [(a, b, a, b) for a in range(3) for b in range(3)]
        stages = decompose_perm3_classical(pairs, 3, 3)
        for a in range(3):
            for b in range(3):
                assert apply_stages(stages, a, b) == (a, b)

    def test_cnot_table_single_stage(self):
        pairs = [(a, b, a, b ^ a) for a in range(2) for b in range(2)]
        stages = decompose_perm3_classical(pairs, 2, 2)
        nontrivial = sum(
            1
            for st_ in stages
            if any(list(p) != list(range(len(p))) for p in st_.perms)
        )
        assert nontrivial == 1
        for a in range(2):
            for b in range(2):
                assert apply_stages(stages, a, b) == (a, b ^ a)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_8x8_composition(self, seed):
        cp = random_permutation((8, 8), seed)
        pairs = [
            (i // 8, i % 8, cp.targets[i] // 8, cp.targets[i] % 8) for i in range(64)
        ]
        stages = decompose_perm3_classical(pairs, 8, 8)
        kinds = [s.kind for s in stages]
        assert kinds == ["row", "col", "row"]
        for i in range(64):
            got = apply_stages(stages, i // 8, i % 8)
            assert got == (cp.targets[i] // 8, cp.targets[i] % 8)

    def test_non_bijection_rejected(self):
        pairs = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)]
        with pytest.raises(ValueError):
            decompose_perm3_classical(pairs, 2, 2)


class TestMultipartyPerm:
    def test_bipartite_reduces_to_three(self):
        cp = random_permutation((4, 3), 2)
        c = decompose_multiparty_perm(cp)
        assert len(c.gates) == 3
        assert exact_equal(c, cp)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_qubits(self, seed):
        cp = random_permutation((2, 2, 2), seed)
        c = decompose_multiparty_perm(cp)
        assert len(c.gates) <= 5
        assert exact_equal(c, cp)
        for g in c.gates:
            assert len(g.controls) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_dims(self, seed):
        cp = random_permutation((2, 3, 2), 50 + seed)
        c = decompose_multiparty_perm(cp)
        assert len(c.gates) <= 5
        assert exact_equal(c, cp)

    def test_four_parties(self):
        cp = random_permutation((2, 2, 2, 2), 9)
        c = decompose_multiparty_perm(cp)
        assert len(c.gates) <= 7
        assert exact_equal(c, cp)
        for g in c.gates:
            assert len(g.controls) == 3

    def test_complex_multiparty(self):
        cp = random_complex_permutation((2, 2, 3), 4)
        c = decompose_multiparty_perm(cp)
        assert exact_equal(c, cp)


class TestComplexPermutationType:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            ComplexPermutation((2, 2), (0, 0, 1, 2), (1.0,) * 4)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            ComplexPermutation((2,), (0, 1), (1.0, 2.0))

    @pytest.mark.parametrize("dims", [(0, 3), (0,), (2, -1), (3, 0, 2)])
    def test_rejects_a_party_dimension_below_1(self, dims):
        # a zero dimension makes the empty table a bijection
        n = max(math.prod(dims), 0)
        with pytest.raises(PreconditionError, match="below 1"):
            ComplexPermutation(dims, tuple(range(n)), (1.0,) * n)

    def test_from_matrix_roundtrip(self):
        cp = random_complex_permutation((3, 2), 7)
        back = ComplexPermutation.from_matrix(cp.matrix(), (3, 2))
        assert back.targets == cp.targets
        assert np.allclose(back.phases, cp.phases)

    def test_from_matrix_rejects_general_unitary(self):
        from gatedecomp.generators import haar_unitary
        from gatedecomp.matcore import PreconditionError

        with pytest.raises(PreconditionError):
            ComplexPermutation.from_matrix(haar_unitary(4, 1), (2, 2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(float("nan"), 0.0)])
    def test_rejects_non_finite_phase(self, bad):
        with pytest.raises(ValueError):
            ComplexPermutation((2, 2), (0, 1, 2, 3), (bad, 1.0, 1.0, 1.0))


def reference_from_matrix(m, dims):
    """``ComplexPermutation.from_matrix`` as one pass over the columns."""
    a = as_matrix(m)
    dims = checked_dims(dims)
    n = math.prod(dims)
    if a.shape != (n, n):
        raise ValueError(f"matrix is {a.shape}, expected {(n, n)}")
    targets, phases = [], []
    for col in range(n):
        nz = np.flatnonzero(np.abs(a[:, col]) > 1e-12)
        if nz.size != 1:
            raise PreconditionError("matrix is not a complex permutation")
        r = int(nz[0])
        v = a[r, col]
        if abs(abs(v) - 1.0) > 1e-12:
            raise PreconditionError("nonzero entries must have unit modulus")
        targets.append(r)
        phases.append(1.0 if v == 1.0 else complex(v))
    return ComplexPermutation(dims, tuple(targets), tuple(phases))


def _phase_bits(cp):
    return [(type(p), np.complex128(p).tobytes()) for p in cp.phases]


def _outcome(read, m, dims):
    """``(targets, phase bits)`` of ``read(m, dims)``, or the type of what it raised."""
    try:
        cp = read(m, dims)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)
    return cp.targets, _phase_bits(cp)


def _invalid_variants(m):
    """Matrices that break a permutation ``m`` each in one way, or sit at its tolerance edge."""
    n = m.shape[0]
    r0, r1 = np.flatnonzero(m[:, 0])[0], np.flatnonzero(m[:, -1])[0]
    off = np.abs(m) == 0
    out = {}
    out["zero column"] = m.copy()
    out["zero column"][:, 0] = 0
    out["two in a column"] = m.copy()
    out["two in a column"][(r0 + 1) % n, 0] = 1
    out["two columns on a row"] = m.copy()
    out["two columns on a row"][:, -1] = 0
    out["two columns on a row"][r0, -1] = 1
    for dv in (2e-12, -2e-12, 5e-13, -5e-13):
        out[f"modulus 1 + {dv}"] = m.copy()
        out[f"modulus 1 + {dv}"][r1, -1] *= 1 + dv
    for dz in (5e-13, -5e-13, 5e-13j):
        out[f"{dz} beside the 1s"] = m + dz * off
    return out


class TestFromMatrixAgainstColumnLoop:
    @pytest.mark.parametrize("da", range(1, 7))
    @pytest.mark.parametrize("db", range(1, 7))
    @pytest.mark.parametrize("make", [random_permutation, random_complex_permutation])
    def test_random_permutations(self, da, db, make):
        m = make((da, db), 10 * da + db).matrix()
        got = _outcome(ComplexPermutation.from_matrix, m, (da, db))
        assert got == _outcome(reference_from_matrix, m, (da, db))
        assert isinstance(got, tuple)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("make", [random_permutation, random_complex_permutation])
    def test_invalid_and_edge_matrices(self, dims, make):
        m = make(dims, 5).matrix()
        for name, v in _invalid_variants(m).items():
            got = _outcome(ComplexPermutation.from_matrix, v, dims)
            assert got == _outcome(reference_from_matrix, v, dims), name

    def test_variants_cover_each_outcome(self):
        outcomes = {
            name: _outcome(ComplexPermutation.from_matrix, v, (2, 2))
            for name, v in _invalid_variants(random_complex_permutation((2, 2), 5).matrix()).items()
        }
        assert outcomes["zero column"] is PreconditionError
        assert outcomes["two in a column"] is PreconditionError
        assert outcomes["two columns on a row"] is ValueError
        assert outcomes["modulus 1 + 2e-12"] is PreconditionError
        assert outcomes["modulus 1 + -2e-12"] is PreconditionError
        assert isinstance(outcomes["5e-13 beside the 1s"], tuple)
        assert isinstance(outcomes["modulus 1 + 5e-13"], tuple)
