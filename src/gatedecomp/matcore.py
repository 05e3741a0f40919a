"""Dense complex linear-algebra primitives shared by the decomposition passes.

All matrices are plain ``numpy`` arrays of ``complex128``.  Three tolerance
tiers are used throughout the package:

* ``DEFAULT_EPS`` (1e-9)  -- entrywise tolerance for unitarity/structure checks,
* ``RANK_TOL``    (1e-10) -- numerical-zero threshold for rank/nullity decisions,
* ``RECON_TOL``   (1e-8)  -- max-entry tolerance for factorization round-trips.

A decomposition entry point accepts a unitary to ``RECON_TOL`` and works on
its polar factor once ``max|U U† - I|`` exceeds ``POLAR_TOL`` (1e-12), so that
the completions inside it see rows orthonormal to round-off.

Keeping the rank threshold one decade below the verification tolerance avoids
misclassifying accumulated round-off as structure.

The cosine-sine step of the sandwich recursion takes the two-SVD route on a
``2p x 2p`` input when ``2p >= CSD_SVD_MIN_DIM`` (32, the size above which
two SVDs beat LAPACK's ``zuncsd``) and the cosines are separated: every two
differ by more than ``CSD_SEPARATION`` (1e-8), and each is at least that far
from 0 and from 1.  Other inputs keep ``zuncsd`` and its bases.

The dense simulator refuses spaces of more than ``MAX_DENSE_DIM`` (4096)
basis states before allocating: one 4096 x 4096 complex matrix is 256 MiB,
and a product holds a few at once.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

DEFAULT_EPS = 1e-9
RANK_TOL = 1e-10
RECON_TOL = 1e-8
POLAR_TOL = 1e-12
CSD_SVD_MIN_DIM = 32
CSD_SEPARATION = 1e-8
MAX_DENSE_DIM = 4096


class PreconditionError(ValueError):
    """An operation's input violates its documented precondition."""


class InfeasibleError(ValueError):
    """A factorization target is numerically unattainable for this input."""


def require_dense_dim(n: int) -> None:
    """Raise PreconditionError when an n x n dense matrix exceeds ``MAX_DENSE_DIM``."""
    if n > MAX_DENSE_DIM:
        raise PreconditionError(
            f"space of {n} basis states is above the dense limit of {MAX_DENSE_DIM}"
        )


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(m) -> float:
    a = np.asarray(m)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def is_unitary(m, eps: float = DEFAULT_EPS) -> bool:
    """True iff both M M† - I and M† M - I have max-entry norm <= eps."""
    a = require_square(m)
    eye = np.eye(a.shape[0])
    return (
        max_abs(a @ a.conj().T - eye) <= eps
        and max_abs(a.conj().T @ a - eye) <= eps
    )


def unitary_input(m) -> np.ndarray:
    """A square input checked unitary to ``RECON_TOL``, polished when it drifts.

    Raises PreconditionError unless both M M† - I and M† M - I have
    max-entry norm <= RECON_TOL.  When max|M M† - I| > POLAR_TOL the polar factor
    W Vh of the SVD M = W S Vh, the nearest unitary, is returned instead of
    M; an input unitary to POLAR_TOL is returned as it is, with no SVD.
    """
    a = require_square(m)
    eye = np.eye(a.shape[0])
    drift = max_abs(a @ a.conj().T - eye)
    if drift > RECON_TOL or max_abs(a.conj().T @ a - eye) > RECON_TOL:
        raise PreconditionError("input is not unitary")
    if drift > POLAR_TOL:
        w, _, vh = np.linalg.svd(a)
        a = w @ vh
    return a


def perm_matrix(perm) -> np.ndarray:
    """Permutation matrix (complex) that sends basis vector j to ``perm[j]``."""
    perm = np.asarray(perm)
    m = np.zeros((perm.size, perm.size), dtype=complex)
    m[perm, np.arange(perm.size)] = 1.0
    return m


def svd_diagonalize(m):
    """Factor a square matrix as M = E @ D @ F.

    E, F are unitary and D is diagonal with real nonnegative entries sorted
    nonincreasing (the LAPACK singular-value order).

    Returns:
        (E, D, F) with D returned as a full diagonal matrix.
    """
    a = require_square(m)
    e, s, f = np.linalg.svd(a)
    return e, np.diag(s).astype(complex), f


def _orthonormal_completion(vectors, dim: int) -> np.ndarray:
    """Extend an orthonormal family to a basis of C^dim.

    ``vectors`` holds the k family members as rows.  Returns a (dim, dim)
    array whose rows are the basis: the family in its given order, then the
    added vectors.  Candidates are the standard basis vectors in increasing
    index order; each is projected off the rows found so far twice
    (classical Gram-Schmidt with one re-orthogonalisation, two ``Q (Q† v)``
    passes), and a candidate whose residual norm falls below RANK_TOL is
    skipped.  In exact arithmetic this is the basis that modified
    Gram-Schmidt over the same candidates gives.
    """
    q = np.zeros((dim, dim), dtype=complex)
    n = len(vectors)
    if n:
        q[:n] = vectors
    # rows q[:n] are the basis vectors b_j, so Q† v = conj(q[:n] @ conj(v))
    # and Q c = c @ q[:n]
    for i in range(dim):
        if n == dim:
            break
        v = -(np.conj(q[:n, i]) @ q[:n])
        v[i] += 1.0
        v -= np.conj(q[:n] @ np.conj(v)) @ q[:n]
        nrm = np.linalg.norm(v)
        if nrm < RANK_TOL:
            continue
        q[n] = v / nrm
        n += 1
    if n != dim:
        raise InfeasibleError("could not complete an orthonormal basis")
    return q


def orthogonal_columns_to_diagonal(m) -> np.ndarray:
    """Return unitary V such that V @ M is diagonal with nonnegative entries.

    Requires the columns of M to be pairwise orthogonal (the Gram matrix
    M† M must be diagonal to within ``DEFAULT_EPS``).  Rows of V corresponding to
    numerically zero columns are completed deterministically from standard
    basis vectors in increasing index order.
    """
    a = require_square(m)
    n = a.shape[0]
    gram = a.conj().T @ a
    if max_abs(gram - np.diag(np.diag(gram))) > DEFAULT_EPS:
        raise PreconditionError("columns are not pairwise orthogonal")
    norms = np.sqrt(np.clip(np.real(np.diag(gram)), 0.0, None))
    rows: dict[int, np.ndarray] = {}
    for j in range(n):
        if norms[j] >= RANK_TOL:
            rows[j] = np.conj(a[:, j]) / norms[j]
    missing = [j for j in range(n) if j not in rows]
    if missing:
        completion = _orthonormal_completion([rows[j] for j in sorted(rows)], n)[len(rows) :]
        for j, vec in zip(missing, completion):
            rows[j] = vec
    return np.vstack([rows[j] for j in range(n)]) if n else np.zeros((0, 0), complex)


def compress_rows(b, t: int) -> np.ndarray:
    """Return unitary V (m x m) such that B @ V is supported on its first t columns.

    Requires the numerical rank of the k x m matrix B to be at most t.  The
    leading columns of V are the right singular vectors of B; the rest is the
    deterministic standard-basis completion of their span.
    """
    a = as_matrix(b)
    _, m = a.shape
    if not 0 <= t <= m:
        raise ValueError(f"target column count {t} out of range for {m} columns")
    if a.size == 0 or max_abs(a) == 0.0:
        return np.eye(m, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > RANK_TOL))
    if rank > t:
        raise InfeasibleError(f"row space has rank {rank} > {t}")
    return _orthonormal_completion(vh[:rank].conj(), m).T


def complete_isometry(b) -> np.ndarray:
    """Return unitary W (m x m) with B @ W = [I_k | 0] for a k x m isometry B.

    The rows of B must be orthonormal to ``DEFAULT_EPS``.
    The first k columns of W are B†; the remaining columns are the
    deterministic standard-basis completion of the null space.
    """
    a = as_matrix(b)
    k, m = a.shape
    if k > m:
        raise PreconditionError("more rows than columns; not an isometry")
    if max_abs(a @ a.conj().T - np.eye(k)) > DEFAULT_EPS:
        raise PreconditionError("rows are not orthonormal")
    return _orthonormal_completion(a.conj(), m).T


def unitary_eig(m):
    """Eigendecomposition M = Q diag(w) Q† of a (near-)unitary matrix.

    Uses the complex Schur form, so Q is unitary to machine precision even
    for clustered eigenvalues.  The eigenvalues are ordered by phase angle
    in [0, 2*pi) for reproducibility.

    Returns:
        (Q, w) with Q unitary and w the eigenvalue vector.
    """
    a = require_square(m)
    if a.shape[0] == 0:
        return a.copy(), np.zeros(0, complex)
    t, q = scipy.linalg.schur(a, output="complex")
    w = np.diag(t).copy()
    order = np.argsort(np.mod(np.angle(w), 2.0 * np.pi), kind="stable")
    return q[:, order], w[order]
