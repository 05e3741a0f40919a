"""Dense complex linear-algebra primitives shared by the decomposition passes.

All matrices are plain ``numpy`` arrays of ``complex128``.  Three tolerance
tiers are used throughout the package:

* ``DEFAULT_EPS`` (1e-9)  -- entrywise tolerance for unitarity/structure checks,
* ``RANK_TOL``    (1e-10) -- numerical-zero threshold for rank/nullity decisions,
* ``RECON_TOL``   (1e-8)  -- max-entry tolerance for factorization round-trips.

``IDENTITY_TOL`` (1e-12) decides what a decomposition takes as exactly
structured.  A gate, branch or phase whose max-entry distance from the
identity (or from 1) is at most this counts as the identity: sandwich and
multiparty circuits strip such gates, and the standard-gate compiler emits
nothing for such a branch or phase.  A 2 x dB node whose off-diagonal blocks
are at most this in every entry counts as already controlled from A, so its
cosine-sine step is skipped and those blocks count as zero.

``EXACT_TOL`` (1e-12) is what the exact readers take as 0, 1 or the unit
circle: the permutation-file snap, reading a complex permutation (entries up
to it are zeroed, then ``read_permutations``), and the 0/1 (``read_binary``)
and real nonnegative inputs of the rank toolkit and the protocols.

Every dense decomposition entry point checks its input with
``unitary_input(u, dims)``, which accepts a unitary to ``RECON_TOL`` and gives
its polar factor once ``max|U U† - I|`` exceeds ``POLAR_TOL`` (1e-12), so that
the completions inside it see rows orthonormal to round-off.

Keeping the rank threshold one decade below the verification tolerance avoids
misclassifying accumulated round-off as structure.

The 2 x dB core of the sandwich recursion splits a ``2p x 2p`` node with the
stacked two-SVD kernel, whatever its cosines, when ``2p >= CSD_SVD_MIN_DIM``
(32, the size above which two SVDs beat LAPACK's ``zuncsd``), and with
``zuncsd`` below it.

``CSD_SEPARATION`` (1e-8) decides which completion a halving node takes.
Its cosines, the singular values of its p x p block U11, are *separated*
when each lies more than ``CSD_SEPARATION`` from the next, from 1 and from
0.  A separated node (Haar inputs) takes the two-SVD kernel, which also
supplies the completion, on a stack of all such nodes of its level.  Any
other node (permutations, phased, controlled and identity blocks, whose
cosines sit at 0 or 1 or repeat) keeps the Gram-Schmidt completion, whose
bases give those inputs their pinned gate counts.  The decision only
routes: both completions are accurate on every input.

The dense simulator refuses spaces of more than ``MAX_DENSE_DIM`` (4096)
basis states before allocating: one 4096 x 4096 complex matrix is 256 MiB,
and a product holds a few at once.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import scipy.linalg

DEFAULT_EPS = 1e-9
RANK_TOL = 1e-10
RECON_TOL = 1e-8
POLAR_TOL = 1e-12
IDENTITY_TOL = 1e-12
EXACT_TOL = 1e-12
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


def checked_dims(dims) -> tuple[int, ...]:
    """``dims`` as ints (``operator.index``); PreconditionError for one below 1."""
    dims = tuple(operator.index(d) for d in dims)
    if min(dims, default=1) < 1:
        raise PreconditionError(f"dimension {min(dims)} is below 1")
    return dims


def unitary_input(m, dims) -> np.ndarray:
    """The input contract of every dense decomposition entry point.

    ``dims`` must be integers (``operator.index``) of at least 1
    (PreconditionError), and ``m`` a finite square matrix of side prod(dims)
    (ValueError) with max-entry norms of M M† - I and M† M - I at most
    RECON_TOL (PreconditionError).  When max|M M† - I| > POLAR_TOL the polar
    factor W Vh of the SVD M = W S Vh, the nearest unitary, is returned
    instead of M; an input unitary to POLAR_TOL is returned as it is.
    """
    n = math.prod(checked_dims(dims))
    a = require_square(m)
    if a.shape[0] != n:
        raise ValueError(f"matrix is {a.shape}, expected {(n, n)}")
    eye = np.eye(n)
    drift = max_abs(a @ a.conj().T - eye)
    if drift > RECON_TOL or max_abs(a.conj().T @ a - eye) > RECON_TOL:
        raise PreconditionError("input is not unitary")
    if drift > POLAR_TOL:
        w, _, vh = np.linalg.svd(a)
        a = w @ vh
    return a


def on_unit_circle(v) -> np.ndarray:
    """Entrywise ``| |v| - 1 | <= EXACT_TOL``; False for NaN and inf."""
    return np.abs(np.abs(v) - 1.0) <= EXACT_TOL


def read_permutations(stack: np.ndarray):
    """``(rows, vals, bad)`` of a ``(k, d, d)`` stack of matrices.

    ``rows[p, j]`` is the row of the first nonzero (``!= 0``) in column j of
    entry p and ``vals[p, j]`` its value.  ``bad[p]`` marks an entry that is
    not a complex permutation: a ``vals[p, j]`` off the unit circle (a zero
    column), other than d nonzeros (a column with two), or ``rows[p]`` not a
    permutation (a row with two).
    """
    k, d, _ = stack.shape
    nonzero = stack != 0
    rows = nonzero.argmax(axis=1)
    vals = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0, :]
    bad = np.count_nonzero(nonzero.reshape(k, -1), axis=1) != d
    bad |= (np.sort(rows, axis=1) != np.arange(d)).any(axis=1)
    return rows, vals, bad | ~on_unit_circle(vals).all(axis=1)


def read_binary(a) -> np.ndarray:
    """``a`` as an int64 matrix; PreconditionError unless each entry is within EXACT_TOL of 0 or 1."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise PreconditionError("expected a matrix")
    if arr.dtype.kind in "biu":
        ints = arr.astype(np.int64)
    else:
        # refused before rounding: inf - round(inf) is NaN, and numpy warns on it
        if not np.isfinite(arr).all():
            raise PreconditionError("entries must be 0 or 1")
        near = np.round(np.real(arr))
        if not (np.abs(arr - near) <= EXACT_TOL).all():
            raise PreconditionError("entries must be 0 or 1")
        ints = near.astype(np.int64)
    if (ints >> 1).any():
        raise PreconditionError("entries must be 0 or 1")
    return ints


def perm_matrix(perm) -> np.ndarray:
    """Permutation matrix (complex) that sends basis vector j to ``perm[j]``.

    A stack of tables, shape ``(..., d)``, gives the stack of their matrices,
    shape ``(..., d, d)``.
    """
    perm = np.asarray(perm)
    if perm.ndim > 1:
        d = perm.shape[-1]
        m = np.zeros(perm.shape + (d,), dtype=complex)
        # the items' (d, d) blocks one after another are the rows of one (-1, d) view
        rows = perm + np.arange(0, perm.size, d).reshape(perm.shape[:-1] + (1,))
        m.reshape(-1, d)[rows, np.arange(d)] = 1.0
        return m
    m = np.zeros((perm.size, perm.size), dtype=complex)
    m[perm, np.arange(perm.size)] = 1.0
    return m


def _orthonormal_completion(vectors, dim: int, sizes=None) -> np.ndarray:
    """Extend an orthonormal family to a basis of C^dim, for one family or a batch.

    ``vectors`` holds the family members as rows: a (k, dim) family gives a
    (dim, dim) array, and a (b, r, dim) batch gives (b, dim, dim), where item
    j's family is its first ``sizes[j]`` rows (all r rows when ``sizes`` is
    None).  The rows of each result are the basis: the family in its given
    order, then the added vectors.  Candidates are the standard basis vectors
    in increasing index order; each is projected off the rows found so far
    twice (classical Gram-Schmidt with one re-orthogonalisation, two
    ``Q (Q† v)`` passes), and a candidate whose residual norm falls below
    RANK_TOL is skipped.  In exact arithmetic this is the basis that modified
    Gram-Schmidt over the same candidates gives.

    A batch runs in rounds.  Each round takes the items with the fewest rows
    found and, among those, the earliest next candidate, and tries that
    candidate on all of them at once; every item makes its own skip
    decisions.  Every product is a per-item BLAS call (vector-matrix products
    on a stack, the norm as two real dot products), so an item's basis has
    the same bits as when it is completed alone.
    """
    fam = np.asarray(vectors, dtype=complex)
    single = fam.ndim != 3
    if single:
        fam = fam.reshape(1, len(fam), dim)
    b, r, _ = fam.shape
    q = np.zeros((b, dim, dim), dtype=complex)
    q[:, :r] = fam
    n = np.full(b, r) if sizes is None else np.array(sizes, dtype=np.intp)
    if b == 1:
        _complete_one(q[0], int(n[0]))
        return q[0] if single else q
    # item j has n_j rows and its next candidate is c_j: key_j = n_j (dim + 1) + c_j,
    # and a round takes the items of the lowest key, whose products share a shape
    key = n * (dim + 1)
    # rows q[j, :n] are item j's basis vectors b_l, so Q† v = conj(q[:n] @ conj(v))
    # and Q c = c @ q[:n].  A row is written for a skipped candidate too; it
    # lies past the item's n rows, so nothing reads it before the next kept
    # candidate overwrites it.
    while True:
        low = int(key.min())
        s, i = divmod(low, dim + 1)
        if s == dim:
            break
        if i == dim:
            raise InfeasibleError("could not complete an orthonormal basis")
        idx = slice(None) if key.max() == low else np.flatnonzero(key == low)
        qs = q[idx, :s]
        v = -(np.conj(qs[:, :, i])[:, None] @ qs)[:, 0]
        v[:, i] += 1.0
        v -= (np.conj(qs @ np.conj(v)[:, :, None]).transpose(0, 2, 1) @ qs)[:, 0]
        re, im = v.real, v.imag
        nrm = np.sqrt(re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0]
        keep = nrm >= RANK_TOL
        q[idx, s] = v / np.where(keep, nrm, 1.0)[:, None]
        key[idx] += np.where(keep, dim + 2, 1)
    return q[0] if single else q


def _complete_one(q: np.ndarray, n: int) -> None:
    """``_orthonormal_completion`` of one family, the first n rows of q, in place.

    The same products as a batch's round on one item, each on vectors
    rather than on a stack of one: numpy dispatches a vector-matrix product
    to the same BLAS call either way, so the basis has the same bits, at
    about half the cost per candidate.
    """
    dim = len(q)
    for i in range(dim):
        if n == dim:
            return
        qs = q[:n]
        v = -(np.conj(qs[:, i]) @ qs)
        v[i] += 1.0
        v -= np.conj(qs @ np.conj(v)) @ qs
        re, im = v.real, v.imag
        nrm = np.sqrt(re @ re + im @ im)
        if nrm >= RANK_TOL:
            q[n] = v / nrm
            n += 1
    if n < dim:
        raise InfeasibleError("could not complete an orthonormal basis")


def _as_stack(m) -> tuple[np.ndarray, bool]:
    """``(stack, single)``: a matrix as a stack of one, or a 3-D stack as it is."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3:
        return as_matrix(a)[None], True
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a, False


def compress_rows(b, t: int) -> np.ndarray:
    """Return unitary V (m x m) such that B @ V is supported on its first t columns.

    Requires the numerical rank of the k x m matrix B (singular values above
    ``RANK_TOL``) to be at most t.  The leading columns of V are the right
    singular vectors of B's largest ``min(t, count(s > 0))`` singular values,
    so a direction below ``RANK_TOL`` that still fits in t columns is kept;
    the rest is the deterministic standard-basis completion of their span.
    An all-zero B gives the identity.  A (b, k, m) stack of matrices gives
    the (b, m, m) stack of their V, each the same as for that matrix alone.
    """
    a, single = _as_stack(b)
    m = a.shape[-1]
    if not 0 <= t <= m:
        raise ValueError(f"target column count {t} out of range for {m} columns")
    _, s, vh = np.linalg.svd(a)
    rank = np.sum(s > RANK_TOL, axis=1)
    if rank.max() > t:
        raise InfeasibleError(f"row space has rank {rank.max()} > {t}")
    rows = vh.conj()
    # an all-zero item gets V = I exactly, as a basis given whole
    zero = ~a.any(axis=(1, 2))
    rows[zero] = np.eye(m)
    keep = np.minimum(t, np.sum(s > 0, axis=1))
    q = _orthonormal_completion(rows, m, np.where(zero, m, keep))
    v = q.transpose(0, 2, 1)
    return v[0] if single else v


def complete_isometry(b) -> np.ndarray:
    """Return unitary W (m x m) with B @ W = [I_k | 0] for a k x m isometry B.

    The rows of B must be orthonormal to ``DEFAULT_EPS``.
    The first k columns of W are B†; the remaining columns are the
    deterministic standard-basis completion of the null space.  A (b, k, m)
    stack of isometries gives the (b, m, m) stack of their W.
    """
    a, single = _as_stack(b)
    _, k, m = a.shape
    if k > m:
        raise PreconditionError("more rows than columns; not an isometry")
    if max_abs(a @ a.conj().transpose(0, 2, 1) - np.eye(k)) > DEFAULT_EPS:
        raise PreconditionError("rows are not orthonormal")
    w = _orthonormal_completion(a.conj(), m).transpose(0, 2, 1)
    return w[0] if single else w


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
