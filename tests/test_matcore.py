import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedecomp import ComplexPermutation, codecs, matcore, pp_expansion
from gatedecomp.codecs import CodecError
from gatedecomp.matcore import (
    EXACT_TOL,
    PreconditionError,
    _orthonormal_completion,
    InfeasibleError,
    complete_isometry,
    compress_rows,
    is_unitary,
    max_abs,
    on_unit_circle,
    perm_matrix,
    read_binary,
    read_permutations,
    unitary_eig,
    unitary_input,
)
from gatedecomp.generators import haar_unitary, swap_unitary

from conftest import assert_close, noisy_haar


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_non_unit_singular_value(self):
        assert not is_unitary(np.diag([1.0, 2.0]))

    def test_swap_permutation(self):
        assert is_unitary(swap_unitary(2))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_unitary(np.zeros((2, 3)))

    def test_nan_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            is_unitary(m)


class TestCompressRows:
    def test_single_row(self):
        v = compress_rows(np.array([[0.0, 0.0, 1.0]]), 1)
        out = np.array([[0.0, 0.0, 1.0]]) @ v
        assert abs(abs(out[0, 0]) - 1.0) <= 1e-12
        assert max_abs(out[0, 1:]) <= 1e-12

    def test_zero_matrix(self):
        assert_close(compress_rows(np.zeros((2, 4)), 2), np.eye(4), 0)

    def test_seeded_rectangular(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        v = compress_rows(b, 2)
        assert is_unitary(v)
        assert max_abs((b @ v)[:, 2:]) <= 1e-9

    def test_infeasible_rank(self):
        with pytest.raises(InfeasibleError):
            compress_rows(np.eye(3), 2)

    def test_keeps_a_direction_below_rank_tol_that_fits(self):
        # rank 1 at RANK_TOL, but its 1e-11 direction fits in t = 2 columns
        # and must not be left past them
        b = haar_unitary(4, 7) @ np.diag([1.0, 1e-11, 0.0, 0.0]) @ haar_unitary(4, 8)
        v = compress_rows(b, 2)
        assert is_unitary(v)
        assert max_abs((b @ v)[:, 2:]) <= 1e-14


class TestCompleteIsometry:
    def test_swap_rows(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = complete_isometry(b)
        assert_close(w, b.conj().T, 1e-12)
        assert_close(b @ w, np.eye(2), 1e-12)

    def test_single_basis_row(self):
        w = complete_isometry(np.array([[1.0, 0.0, 0.0]]))
        assert_close(w, np.eye(3), 1e-12)

    def test_seeded_three_row(self):
        u = haar_unitary(6, 11)
        b = u[:3, :]
        w = complete_isometry(b)
        assert is_unitary(w)
        assert_close(b @ w, np.hstack([np.eye(3), np.zeros((3, 3))]), 1e-8)

    def test_nonorthonormal_rejected(self):
        with pytest.raises(PreconditionError):
            complete_isometry(np.ones((2, 3)))


def _mgs_completion(vectors, dim):
    """Modified Gram-Schmidt completion, one vector op per (candidate, basis
    vector) pair: the reference that the block completion must reproduce."""
    out = list(vectors)
    added = []
    for i in range(dim):
        if len(out) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):
            for b in out:
                v = v - b * (np.conj(b) @ v)
        nrm = np.linalg.norm(v)
        if nrm < matcore.RANK_TOL:
            continue
        v = v / nrm
        out.append(v)
        added.append(v)
    return added


def _loop_completion(vectors, dim):
    """One family, one candidate at a time: the loop whose bits the stacked
    completion must reproduce, product for product (the same vector-matrix
    BLAS calls, the norm as two real dot products)."""
    q = np.zeros((dim, dim), dtype=complex)
    n = len(vectors)
    q[:n] = vectors
    for i in range(dim):
        if n == dim:
            break
        v = -(np.conj(q[:n, i]) @ q[:n])
        v[i] += 1.0
        v -= np.conj(q[:n] @ np.conj(v)) @ q[:n]
        nrm = np.linalg.norm(v)
        if nrm < matcore.RANK_TOL:
            continue
        q[n] = v / nrm
        n += 1
    assert n == dim
    return q


def _random_family(dim, k, seed):
    return haar_unitary(dim, seed)[:k]


def _sparse_family(dim, k, seed):
    # phased standard-basis vectors: their own candidates leave zero residual
    rng = np.random.default_rng(seed)
    fam = np.zeros((k, dim), dtype=complex)
    fam[np.arange(k), rng.choice(dim, k, replace=False)] = np.exp(2j * np.pi * rng.random(k))
    return fam


def _near_dependent_family(dim, k, seed, eps):
    # an orthonormal family within eps of the first k standard-basis vectors
    rng = np.random.default_rng(seed)
    z = np.eye(dim, dtype=complex)[:k] + eps * (
        rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
    )
    q, _ = np.linalg.qr(z.T)
    return q.T


class TestOrthonormalCompletion:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 33, 64])
    @pytest.mark.parametrize(
        "family",
        [
            lambda d, k, s: _random_family(d, k, s),
            _sparse_family,
            lambda d, k, s: _near_dependent_family(d, k, s, 1e-3),
            lambda d, k, s: _near_dependent_family(d, k, s, 1e-6),
            lambda d, k, s: _near_dependent_family(d, k, s, 1e-9),
        ],
        ids=["random", "sparse", "near-1e-3", "near-1e-6", "near-1e-9"],
    )
    def test_matches_modified_gram_schmidt(self, dim, family):
        for seed, k in enumerate(sorted({0, 1, dim // 3, dim // 2, dim - 1})):
            fam = family(dim, k, 100 * dim + seed)
            ref = _mgs_completion(list(fam), dim)
            basis = _orthonormal_completion(fam, dim)
            assert basis.tobytes() == _loop_completion(fam, dim).tobytes()
            assert len(ref) == dim - k
            assert_close(basis[:k], fam, 0)
            assert_close(basis[k:], np.array(ref).reshape(dim - k, dim), 1e-12)
            assert_close(basis @ basis.conj().T, np.eye(dim), 1e-12)

    def test_skips_candidates_in_the_span(self):
        fam = np.zeros((2, 4), dtype=complex)
        fam[0, 1] = 1j
        fam[1, 3] = -1.0
        basis = _orthonormal_completion(fam, 4)
        assert_close(basis[2:], np.eye(4)[[0, 2]], 0)


class TestUnitaryInput:
    def test_exact_unitary_returned_as_is(self):
        u = haar_unitary(12, 4)
        assert unitary_input(u, (3, 4)) is u

    def test_drifting_input_polished(self):
        noisy = noisy_haar(12, 5, 1e-9)
        assert is_unitary(noisy, 1e-8) and not is_unitary(noisy, matcore.POLAR_TOL)
        out = unitary_input(noisy, (12,))
        assert_close(out @ out.conj().T, np.eye(12), 1e-13)
        assert_close(out, noisy, 1e-8)

    def test_nonunitary_rejected(self):
        with pytest.raises(PreconditionError):
            unitary_input(np.diag([1.0, 1.0 + 1e-7]), (2,))


class TestPermMatrix:
    def test_one_table(self):
        # column j holds its 1 in row perm[j]; every other entry is +0.0
        expected = np.zeros((4, 4), dtype=complex)
        for j, row in enumerate([2, 0, 3, 1]):
            expected[row, j] = 1.0
        m = perm_matrix(np.array([2, 0, 3, 1]))
        assert m.dtype == complex and m.tobytes() == expected.tobytes()

    def test_stack_of_tables_gives_each_table_its_bytes(self):
        rng = np.random.default_rng(3)
        tables = np.array([[rng.permutation(5) for _ in range(3)] for _ in range(2)])
        stack = perm_matrix(tables)
        assert stack.shape == (2, 3, 5, 5)
        for i, j in np.ndindex(2, 3):
            assert stack[i, j].tobytes() == perm_matrix(tables[i, j]).tobytes()


class TestUnitaryEig:
    def test_reconstruction_and_order(self):
        u = haar_unitary(5, 21)
        q, w = unitary_eig(u)
        assert is_unitary(q)
        assert_close(q @ np.diag(w) @ q.conj().T, u, 1e-9)
        angles = np.mod(np.angle(w), 2 * np.pi)
        assert np.all(np.diff(angles) >= -1e-12)


class TestDeterminism:
    def test_bit_identical_outputs(self):
        u = haar_unitary(6, 17)
        b = u[:2, :]
        outs1 = (compress_rows(b, 2), complete_isometry(b))
        outs2 = (compress_rows(b, 2), complete_isometry(b))
        for a, c in zip(outs1, outs2):
            assert np.array_equal(a, c)


class TestBatches:
    """A batch gives every item the bytes it gets alone."""

    def test_completion_with_different_skips_and_family_sizes(self):
        dim = 12
        fams = [
            _sparse_family(dim, 5, 1),
            _random_family(dim, 5, 2),
            _near_dependent_family(dim, 3, 3, 1e-9),
            _sparse_family(dim, 0, 4),
            _sparse_family(dim, 7, 5),
            _random_family(dim, 7, 6),
            _sparse_family(dim, 5, 7),
        ]
        sizes = [len(f) for f in fams]
        # rows past an item's size are never read
        batch = np.ones((len(fams), max(sizes), dim), dtype=complex)
        for j, f in enumerate(fams):
            batch[j, : len(f)] = f
        got = _orthonormal_completion(batch, dim, sizes)
        assert got.shape == (len(fams), dim, dim)
        for j, f in enumerate(fams):
            assert got[j].tobytes() == _loop_completion(f, dim).tobytes()

    def test_completion_of_one_size_with_different_skips(self):
        dim = 9
        fams = [_sparse_family(dim, 4, s) for s in range(3)] + [_random_family(dim, 4, 3)]
        got = _orthonormal_completion(np.stack(fams), dim)
        for j, f in enumerate(fams):
            assert got[j].tobytes() == _loop_completion(f, dim).tobytes()

    def test_a_family_alone_a_stack_of_one_and_a_batch_agree(self):
        """A single family takes a vector-by-vector path, a batch its rounds:
        the same products, so the same bytes, skipped candidates included."""
        dim = 10
        fam = _sparse_family(dim, 4, 9)  # its own candidates are skipped
        padded = np.ones((1, 6, dim), dtype=complex)
        padded[0, :4] = fam
        alone = _orthonormal_completion(fam, dim)
        one = _orthonormal_completion(padded, dim, [4])
        batch = _orthonormal_completion(np.concatenate([padded, padded[:, ::-1]]), dim, [4, 0])
        assert one.shape == (1, dim, dim)
        assert alone.tobytes() == one[0].tobytes() == batch[0].tobytes()
        assert alone.tobytes() == _loop_completion(fam, dim).tobytes()
        assert batch[1].tobytes() == _orthonormal_completion(np.zeros((0, dim)), dim).tobytes()

    def test_compress_rows_gives_the_identity_for_a_zero_block(self):
        rng = np.random.default_rng(5)
        full = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        low = full.copy()
        low[2] = low[0] - 2j * low[1]  # rank 2
        sparse = np.zeros((3, 7), dtype=complex)
        sparse[[0, 1], [4, 2]] = [1.0, -1j]
        b = np.stack([full, np.zeros((3, 7)), low, sparse])
        v = compress_rows(b, 3)
        assert v.shape == (4, 7, 7)
        assert v[1].tobytes() == np.eye(7, dtype=complex).tobytes()
        for j in range(len(b)):
            assert v[j].tobytes() == compress_rows(b[j], 3).tobytes()
            assert max_abs((b[j] @ v[j])[:, 3:]) <= 1e-9

    def test_compress_rows_rank_check_covers_every_item(self):
        b = np.stack([np.zeros((3, 4)), np.eye(4)[:3]])
        with pytest.raises(InfeasibleError):
            compress_rows(b, 2)

    def test_complete_isometry(self):
        rows = np.stack([haar_unitary(8, s)[:3] for s in range(3)] + [np.eye(8)[[5, 1, 6]]])
        w = complete_isometry(rows)
        for j in range(len(rows)):
            assert w[j].tobytes() == complete_isometry(rows[j]).tobytes()
        with pytest.raises(PreconditionError):
            complete_isometry(np.stack([rows[0], 2 * rows[1]]))


class TestExactReaders:
    def test_read_permutations_marks_each_defect(self):
        eye = np.eye(3, dtype=complex)
        zero_col, two_in_col, two_on_row, off_circle, nan = (eye.copy() for _ in range(5))
        zero_col[1, 1] = 0
        two_in_col[2, 0] = 1
        two_on_row[:, 2] = [0, 1, 0]
        off_circle[0, 0] = 1 + 2 * EXACT_TOL
        nan[2, 2] = np.nan
        phased = eye * np.exp(1j * np.array([0.3, -2.0, 1.0]))
        stack = np.stack([eye, zero_col, two_in_col, two_on_row, off_circle, nan, phased])
        rows, vals, bad = read_permutations(stack)
        assert bad.tolist() == [False, True, True, True, True, True, False]
        assert rows[6].tolist() == [0, 1, 2] and vals[6].tobytes() == np.diag(phased).tobytes()

    def test_on_unit_circle_edges(self):
        v = np.array([1.0, 1 + 0.5 * EXACT_TOL, 1 + 2 * EXACT_TOL, 1j, np.nan, np.inf, 0.0])
        assert on_unit_circle(v).tolist() == [True, True, False, True, False, False, False]

    def test_read_binary(self):
        assert read_binary(np.array([[1, 0], [0, 1]], dtype=bool)).dtype == np.int64
        near = np.array([[1 + 0.5 * EXACT_TOL, -0.5 * EXACT_TOL], [0.5j * EXACT_TOL, 1.0]])
        assert read_binary(near).tolist() == [[1, 0], [0, 1]]
        for bad in (2 * EXACT_TOL, 2j * EXACT_TOL, np.nan, np.inf, -1.0, 2.0):
            with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
                read_binary(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(PreconditionError, match="expected a matrix"):
            read_binary(np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf), complex(np.nan, 0)])
    def test_read_binary_refuses_non_finite_entries_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="entries must be 0 or 1"):
                read_binary(np.array([[1, bad], [0, 1]]))


def _permutation_and_noise(da, db, seed):
    """A random permutation table on (da, db), its matrix, and noise of modulus in (0, 1] per entry."""
    rng = np.random.default_rng(seed)
    n = da * db
    targets = rng.permutation(n)
    direction = np.exp(2j * np.pi * rng.random((n, n)))
    return targets, perm_matrix(targets), (1.0 - rng.random((n, n))) * direction, direction


def _load_raw(directory, m, dims):
    """``m`` written as a ``permutation`` file by ``json.dump``, unsnapped, and loaded back."""
    path = str(directory / "noisy.json")
    matrix = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    with open(path, "w") as fh:
        json.dump({"kind": "permutation", "dims": list(dims), "matrix": matrix}, fh)
    return codecs.load_matrix_file(path)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(da=st.integers(2, 8), db=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_three_readers_agree_at_the_exact_edge(tmp_path_factory, da, db, seed):
    """Noise up to EXACT_TOL / 2 passes the codec, from_matrix and pp_expansion; 4 EXACT_TOL fails all."""
    directory = tmp_path_factory.mktemp("exact")
    targets, p, noise, direction = _permutation_and_noise(da, db, seed)
    m = p + 0.5 * EXACT_TOL * noise
    table = targets.tolist()
    assert list(_load_raw(directory, m, (da, db)).value.targets) == table
    assert list(ComplexPermutation.from_matrix(m, (da, db)).targets) == table
    assert pp_expansion(m, da, db).reconstruct().argmax(axis=0).tolist() == table

    m = p + 4 * EXACT_TOL * direction
    with pytest.raises(CodecError):
        _load_raw(directory, m, (da, db))
    with pytest.raises(PreconditionError):
        ComplexPermutation.from_matrix(m, (da, db))
    with pytest.raises(PreconditionError):
        pp_expansion(m, da, db)
