"""Rank toolkit: values, certificates, order relations, exhaustive oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import BinaryMatrix, protocols, rank_toolkit
from gatedecomp.generators import example2_flags
from gatedecomp.matcore import EXACT_TOL
from gatedecomp.protocols import BINARY_NODE_BUDGET


def xor_rank_table_4x4():
    """dist[mask] = minimum number of rank-1 binary 4x4 matrices XOR-summing to mask.

    One vectorized BFS over all 2^16 masks; rank-1 matrices are the outer
    products of nonzero row/column supports.
    """
    rects = []
    for rmask in range(1, 16):
        for cmask in range(1, 16):
            m = 0
            for r in range(4):
                if (rmask >> r) & 1:
                    for c in range(4):
                        if (cmask >> c) & 1:
                            m |= 1 << (r * 4 + c)
            rects.append(m)
    rects = np.array(sorted(set(rects)), dtype=np.int64)
    dist = np.full(1 << 16, -1, dtype=np.int8)
    dist[0] = 0
    frontier = np.array([0], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nxt = np.unique((frontier[:, None] ^ rects[None, :]).reshape(-1))
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = level
        frontier = nxt
    return dist


_XOR_TABLE = None


def xor_oracle(arr):
    global _XOR_TABLE
    if _XOR_TABLE is None:
        _XOR_TABLE = xor_rank_table_4x4()
    mask = 0
    r, c = arr.shape
    for i in range(r):
        for j in range(c):
            if arr[i, j]:
                mask |= 1 << (i * 4 + j)
    return int(_XOR_TABLE[mask])


def binary_partition_oracle(arr):
    """Exhaustive minimum disjoint-rectangle partition for tiny matrices."""
    cells = [(r, c) for r, c in np.argwhere(arr)]
    if not cells:
        return 0
    n = len(cells)
    rows, cols = arr.shape
    rects = []
    for rmask in range(1, 1 << rows):
        rset = [r for r in range(rows) if (rmask >> r) & 1]
        for cmask in range(1, 1 << cols):
            cset = [c for c in range(cols) if (cmask >> c) & 1]
            if all(arr[r, c] for r in rset for c in cset):
                rects.append(frozenset((r, c) for r in rset for c in cset))
    target = frozenset(cells)
    for k in range(1, n + 1):
        for combo in itertools.combinations(rects, k):
            union = set()
            total = 0
            for rect in combo:
                union |= rect
                total += len(rect)
            if total == len(union) and union == target:
                return k
    raise AssertionError("unreachable")


class TestRankValues:
    def test_fixed_instance(self):
        t = example2_flags()
        assert rank_toolkit(t, "rank").value == 3
        assert rank_toolkit(t, "xor").value == 2
        assert rank_toolkit(t, "binary").value == 3
        nn = rank_toolkit(t, "nonneg")
        assert nn.lower == 3 and nn.upper == 3

    def test_all_ones(self):
        t = np.ones((4, 4), dtype=int)
        for kind in ("rank", "xor", "binary", "nonneg"):
            rep = rank_toolkit(t, kind)
            assert rep.value == 1, kind

    def test_zero_matrix(self):
        t = np.zeros((3, 3), dtype=int)
        for kind in ("rank", "xor", "binary"):
            assert rank_toolkit(t, kind).value == 0

    def test_binary_matrix_type_roundtrip(self):
        b = BinaryMatrix(2, 3, (1, 0, 1, 0, 1, 0))
        assert rank_toolkit(b, "rank").value == 2
        assert BinaryMatrix.from_array(b.array()) == b

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            rank_toolkit(np.array([[0.5]]), "xor")
        with pytest.raises(ValueError):
            rank_toolkit(np.array([[1, 2]]), "binary")

    @pytest.mark.parametrize("kind", ["rank", "nonneg"])
    def test_real_nonnegative_edge(self, kind):
        # an imaginary part or a negative entry up to EXACT_TOL is read as 0; above it the input is refused
        real = rank_toolkit(np.eye(2), kind)
        for below in (0.5j * EXACT_TOL, -0.5 * EXACT_TOL, 1 + 0.5j * EXACT_TOL):
            rep = rank_toolkit(np.array([[1, below], [0, 1]]), kind)
            assert (rep.lower, rep.upper) == (real.lower, real.upper)
        for above in (2j * EXACT_TOL, -2 * EXACT_TOL, 1 + 2j * EXACT_TOL, np.nan, np.inf, complex(0, np.nan)):
            with pytest.raises(ValueError, match="real nonnegative"):
                rank_toolkit(np.array([[1, above], [0, 1]]), kind)
        with pytest.raises(ValueError, match="real nonnegative"):  # once read from its real part alone
            rank_toolkit(np.array([[1 + 1j, 0], [0, 1]]), kind)

    def test_nonneg_general_matrix_interval(self):
        t = np.array([[0.5, 0.5, 0.0], [0.25, 0.0, 0.75]])
        rep = rank_toolkit(t, "nonneg")
        assert rep.lower == 2
        assert rep.upper == 2


class TestCertificates:
    def test_xor_certificate_reproduces(self):
        t = example2_flags()
        rep = rank_toolkit(t, "xor")
        acc = np.zeros_like(t)
        for u, v in rep.certificate:
            acc ^= np.outer(u, v)
        assert np.array_equal(acc, t)

    def test_binary_certificate_partitions(self):
        t = example2_flags()
        rep = rank_toolkit(t, "binary")
        acc = np.zeros_like(t)
        for rows, cols in rep.certificate:
            for r in rows:
                for c in cols:
                    acc[r, c] += 1
        assert np.array_equal(acc, t)

    def test_rank_certificate_sums(self):
        t = example2_flags().astype(float)
        rep = rank_toolkit(t, "rank")
        acc = np.zeros_like(t)
        for u, v in rep.certificate:
            acc += np.outer(u, v)
        assert np.abs(acc - t).max() <= 1e-9


class TestOracles:
    @pytest.mark.parametrize("seed", range(40))
    def test_xor_matches_exhaustive_4x4(self, seed):
        rng = np.random.default_rng(seed)
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        arr = rng.integers(0, 2, size=(r, c))
        assert rank_toolkit(arr, "xor").value == xor_oracle(arr)

    def test_xor_matches_exhaustive_all_3x3(self):
        for bits in range(1 << 9):
            arr = np.array([(bits >> k) & 1 for k in range(9)]).reshape(3, 3)
            assert rank_toolkit(arr, "xor").value == xor_oracle(arr)

    @pytest.mark.parametrize("seed", range(25))
    def test_binary_matches_exhaustive_small(self, seed):
        rng = np.random.default_rng(seed)
        r, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        arr = rng.integers(0, 2, size=(r, c))
        rep = rank_toolkit(arr, "binary")
        assert rep.exact
        assert rep.value == binary_partition_oracle(arr)


class TestOrderRelations:
    @pytest.mark.parametrize("seed", range(60))
    def test_rank_chain_on_random_binary(self, seed):
        rng = np.random.default_rng(1000 + seed)
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        arr = rng.integers(0, 2, size=(r, c))
        rank = rank_toolkit(arr, "rank").value
        xor = rank_toolkit(arr, "xor").value
        nn = rank_toolkit(arr, "nonneg", node_budget=20_000)
        binary = rank_toolkit(arr, "binary", node_budget=20_000)
        assert rank <= nn.lower <= nn.upper <= binary.upper
        assert xor <= binary.upper
        if binary.exact:
            assert nn.upper <= binary.value

    def test_interval_when_budget_tiny(self):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 2, size=(8, 8))
        rep = rank_toolkit(arr, "binary", node_budget=1)
        assert rep.lower <= rep.upper
        # certificate is still a valid partition
        acc = np.zeros_like(arr)
        for rows, cols in rep.certificate:
            for r in rows:
                for c in cols:
                    acc[r, c] += 1
        assert np.array_equal(acc, arr)


def assert_partition(t, rep):
    """The certificate is ``rep.upper`` disjoint all-ones rectangles covering t."""
    cover = np.zeros(t.shape, dtype=np.int64)
    for rows, cols in rep.certificate:
        cover[np.ix_(rows, cols)] += 1
    assert np.array_equal(cover, t)
    assert len(rep.certificate) == rep.upper


@st.composite
def binary_matrices(draw, max_rows, max_cols):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c))
    return np.array(bits, dtype=np.int64).reshape(r, c)


class TestBinarySearch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(t=binary_matrices(3, 4))
    def test_matches_the_oracle(self, t):
        rep = rank_toolkit(t, "binary")
        assert rep.exact and rep.value == binary_partition_oracle(t)
        assert_partition(t, rep)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_value_is_invariant(self, data):
        """Row and column order, duplicate and zero lines, and transposition keep the value."""
        t = data.draw(binary_matrices(6, 6))
        r, c = t.shape
        base = rank_toolkit(t, "binary")
        assert base.exact
        assert_partition(t, base)
        row_perm = data.draw(st.permutations(range(r)))
        col_perm = data.draw(st.permutations(range(c)))
        i, j = data.draw(st.integers(0, r)), data.draw(st.integers(0, r - 1))
        k, m = data.draw(st.integers(0, c)), data.draw(st.integers(0, c - 1))
        variants = [
            t[list(row_perm)][:, list(col_perm)],
            np.insert(t, i, t[j], axis=0),
            np.insert(t, k, t[:, m], axis=1),
            np.insert(t, i, 0, axis=0),
            np.insert(t, k, 0, axis=1),
            t.T,
        ]
        for v in variants:
            rep = rank_toolkit(v, "binary")
            assert rep.exact and rep.value == base.value
            assert_partition(v, rep)

    @pytest.mark.parametrize(
        "bits, value",
        [
            ("011101110000010111001000001000100011010111", 5),
            ("111010110011010110000101100110100011111101", 4),
        ],
    )
    def test_pool_matrices_exact_at_budget_5000(self, bits, value):
        # two 6 x 7 rank inputs of the integer-cli benchmark pool (seed 11)
        # that stayed intervals of width 1 under the area-only bound
        t = np.array([int(b) for b in bits]).reshape(6, 7)
        binary = rank_toolkit(t, "binary", node_budget=5000)
        nonneg = rank_toolkit(t, "nonneg", node_budget=5000)
        assert binary.exact and binary.value == value == nonneg.upper
        for rep in (binary, nonneg):
            assert 0 < rep.nodes <= 5000
            assert_partition(t, rep)

    def test_ten_by_ten_exact_at_the_default_budget(self):
        rng = np.random.default_rng(10)
        values = []
        for _ in range(10):
            t = rng.integers(0, 2, size=(10, 10))
            rep = rank_toolkit(t, "binary")
            assert rep.exact and rep.nodes <= BINARY_NODE_BUDGET
            assert_partition(t, rep)
            values.append(rep.value)
        assert values == [10, 9, 10, 10, 9, 10, 10, 10, 10, 10]

    def test_area_bound_uses_the_true_largest_rectangle(self):
        # rows 4, 5 and 6 share columns 2, 4 and 6, a 9-cell rectangle whose
        # columns are no row's own set; an area taken from the rows' own
        # column sets alone (5 cells) lifts the bound ceil(cells / area) above
        # the truth, and a search on it pruned every 6-rectangle partition
        t = np.array([
            [0, 1, 0, 1, 0, 0, 1],
            [0, 1, 0, 0, 1, 1, 1],
            [1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 1, 1],
            [0, 1, 1, 0, 1, 0, 1],
            [1, 0, 1, 1, 1, 0, 1],
        ])
        assert protocols._max_rect_area(protocols._row_masks(t)) == 9
        rep = rank_toolkit(t, "binary")
        assert rep.value == 6
        assert_partition(t, rep)

    def test_nodes_reported(self):
        closed = rank_toolkit(np.eye(4, dtype=int), "binary")
        assert closed.exact and closed.nodes == 0
        t = np.array([int(b) for b in "011101110000010111001000001000100011010111"]).reshape(6, 7)
        tiny = rank_toolkit(t, "binary", node_budget=1)
        assert not tiny.exact and tiny.nodes == 1
        assert_partition(t, tiny)

    def test_nonneg_searches_once_with_one_rank(self, monkeypatch):
        t = np.array([int(b) for b in "011101110000010111001000001000100011010111"]).reshape(6, 7)
        calls = {"search": 0, "rank": 0}
        search, rank = protocols._binary_partition_exact, protocols.matrix_rank

        def counted_search(*args):
            calls["search"] += 1
            return search(*args)

        def counted_rank(a):
            calls["rank"] += 1
            return rank(a)

        monkeypatch.setattr(protocols, "_binary_partition_exact", counted_search)
        monkeypatch.setattr(protocols, "matrix_rank", counted_rank)
        for kind in ("nonneg", "binary"):
            calls.update(search=0, rank=0)
            rep = rank_toolkit(t, kind, node_budget=5000)
            assert rep.upper == 5
            assert calls == {"search": 1, "rank": 1}, kind


def _numpy_xor_factor(t):
    """Reference peeling on arrays: the first 1-cell (i, j) gives column j times row i."""
    work = t.copy() % 2
    terms = []
    while work.any():
        i, j = np.argwhere(work)[0]
        u = work[:, j].copy()
        v = work[i, :].copy()
        terms.append((u, v))
        work ^= np.outer(u, v)
    return terms


def _assert_same_terms(t):
    got = protocols._xor_factor(t)
    want = _numpy_xor_factor(t)
    assert len(got) == len(want)
    for (gu, gv), (wu, wv) in zip(got, want):
        assert gu.dtype == wu.dtype == np.int64 and gv.dtype == wv.dtype == np.int64
        assert gu.tobytes() == wu.tobytes() and gv.tobytes() == wv.tobytes()


class TestXorFactorBytes:
    def test_every_3x3(self):
        for bits in range(1 << 9):
            _assert_same_terms(np.array([(bits >> k) & 1 for k in range(9)], dtype=np.int64).reshape(3, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_up_to_8x8(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for _ in range(60):
            r, c = (int(x) for x in rng.integers(1, 9, size=2))
            _assert_same_terms(rng.integers(0, 2, size=(r, c)))
