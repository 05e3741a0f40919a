"""Operator-Schmidt decomposition of a bipartite operator via realignment.

Realignment convention: element ((i,k),(j,l)) of the operator, with i,j
indexing the A side and k,l the B side, is moved to row (i,j), column (k,l)
of the realigned matrix.  Worked 2x2 example: for U = CNOT,

    U = |0><0| (x) I + |1><1| (x) X,

the realigned matrix has rows vec(|0><0|), vec(|1><1|) paired with columns
vec(I), vec(X), giving two nonzero singular values, hence rank 2.  Any
consistent convention yields the same rank.

Out of scope: approximate rank under entrywise perturbation of the operator
(rank of the closest epsilon-ball member); only the threshold on exact
singular values below is offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import as_matrix

SV_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Terms (A_j, B_j) with positive nonincreasing coefficients.

    The A_j are orthonormal under the trace inner product, as are the B_j, so
    sum_j coeff_j * kron(A_j, B_j) reproduces the operator.
    """

    rank: int
    coefficients: tuple[float, ...]
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def reconstruct(self) -> np.ndarray:
        da = self.terms[0][0].shape[0] if self.terms else 1
        db = self.terms[0][1].shape[0] if self.terms else 1
        out = np.zeros((da * db, da * db), dtype=complex)
        for c, (a, b) in zip(self.coefficients, self.terms):
            out += c * np.kron(a, b)
        return out


def realign(u, da: int, db: int) -> np.ndarray:
    """Map the (da*db) x (da*db) operator to its (da*da) x (db*db) realignment."""
    u = as_matrix(u)
    if u.shape != (da * db, da * db):
        raise ValueError(f"operator is {u.shape}, expected {(da * db, da * db)}")
    return u.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def _svd(r: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(r, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        # LAPACK gesdd (divide and conquer) can fail to converge on exact
        # integer inputs; gesvd (QR iteration) is slower but converges
        return scipy.linalg.svd(r, compute_uv=compute_uv, lapack_driver="gesvd")


def _rank(s: np.ndarray) -> int:
    """Singular values above ``SV_TOL`` relative to the largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > SV_TOL * s[0]))


def matrix_rank(r) -> int:
    """Numerical rank: singular values above ``SV_TOL`` relative to the largest one.

    Computed from singular values alone; a real input stays real.
    """
    return _rank(_svd(np.asarray(r), compute_uv=False))


def schmidt_rank(u, da: int, db: int) -> int:
    """Schmidt rank across the (da, db) cut: the rank of the realigned matrix.

    The same rank as ``operator_schmidt(u, da, db).rank``, without computing
    the singular vectors.
    """
    return matrix_rank(realign(u, da, db))


def operator_schmidt(u, da: int, db: int) -> SchmidtDecomposition:
    """Schmidt decomposition across the (da, db) cut.

    The rank counts singular values of the realigned matrix exceeding
    ``SV_TOL`` relative to the largest one.
    """
    w, s, vh = _svd(realign(u, da, db), compute_uv=True)
    rank = _rank(s)
    coeffs = tuple(float(x) for x in s[:rank])
    terms = tuple(
        (w[:, j].reshape(da, da), vh[j].reshape(db, db)) for j in range(rank)
    )
    return SchmidtDecomposition(rank, coeffs, terms)
