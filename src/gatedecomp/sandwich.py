"""Bipartite controlled-gate decompositions.

Provides the 3-gate forms for 2 x dB unitaries (alternating and one-sided),
the Schmidt-rank-2 to controlled-form conversion, the recursive sandwich form
for arbitrary dA with gate count bounded by

    g(dA) = 2 ** (ceil(log2 dA) + 1) - 1  <=  4*dA - 5,

and the factorization of any bipartite unitary into three block-controlled
factors.

A *sandwich form* is a product of computational-basis controlled gates whose
controlling party alternates A, B, A, ...; results carry each surviving
gate's position in that alternating product so the pattern stays checkable
after identity gates are stripped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

from .gateir import (
    Circuit,
    ControlledGate,
    GenericGate,
    LocalGate,
    bipartite_space,
    controlled,
    controlled_stack,
)
from .matcore import (
    CSD_SEPARATION,
    CSD_SVD_MIN_DIM,
    IDENTITY_TOL,
    RECON_TOL,
    InfeasibleError,
    PreconditionError,
    complete_isometry,
    compress_rows,
    max_abs,
    unitary_input,
)

class DegenerateRankTwoError(ValueError):
    """The rank-2 root equation has a double root; no controlled form is derived."""


def sandwich_bound(da: int) -> int:
    """Gate-count bound g(da) for the sandwich form."""
    if da <= 1:
        return 1
    return 2 ** ((da - 1).bit_length() + 1) - 1


# ---------------------------------------------------------------------------
# the alternating gate list as branch stacks
#
# _sandwich_gates returns a plain list of complex branch stacks, one per gate
# of the alternating product, for every item of a stack of inputs at once.
# For k inputs, entry i is controlled from A when i is even and has shape
# (k, dA, dB, dB): stack[j, a] acts on B of input j when A is |a>.  An odd
# entry is controlled from B and has shape (k, dB, dA, dA).  Full lists have
# exactly g(dA) entries, and entry i sits at 1-based product position i + 1.
# A single gate's stack is an entry of one item: (dA, dB, dB) or (dB, dA, dA).


def _eye_stack(*shape: int) -> np.ndarray:
    """Identity matrices of size shape[-1], stacked over shape[:-1]."""
    *lead, d = shape
    out = np.zeros((*lead, d, d), dtype=complex)
    out.reshape(-1, d * d)[:, :: d + 1] = 1.0
    return out


def _is_identity(stacks: np.ndarray) -> np.ndarray:
    """Which gates of a (n, k, d, d) stack have every entry within ``IDENTITY_TOL`` of the identity's.

    A gate whose first branch has a real part off by more is settled by
    that alone; the rest are measured whole.
    """
    eye = np.eye(stacks.shape[-1])
    maybe = np.abs(stacks[:, 0].real - eye).max(axis=(1, 2)) <= IDENTITY_TOL
    out = np.zeros(len(stacks), dtype=bool)
    if maybe.any():
        dev = np.abs(stacks[maybe] - eye).reshape(np.count_nonzero(maybe), -1)
        out[maybe] = dev.max(axis=1) <= IDENTITY_TOL
    return out


# ---------------------------------------------------------------------------
# cosine-sine step
#
# The cosine-sine split of a 2p x 2p unitary at p, p is
#
#     u = (U1 ⊕ U2) [[C, -S], [S, C]] (V1h ⊕ V2h),  C = diag(cos θ), S = diag(sin θ),
#
# so U11 = U1 C V1h, U21 = U2 S V1h, U12 = -U1 S V2h and U22 = U2 C V2h for
# the p x p blocks Uij of u.  The thin split of a 2p x p isometry [U11; U21]
# is U1, U2, θ and V1h alone.
#
# There are two kernels.  The two-SVD kernel (_csd_separated, with V1h's row
# maxima made real) runs on a stack of all nodes of one split index: in the
# 2 x dB core on every node from CSD_SVD_MIN_DIM on, and in the halving step
# on the separated nodes (see _probe) at every size, where it also supplies
# the completion (_halve).  Below CSD_SVD_MIN_DIM the 2 x dB core is LAPACK's
# zuncsd (_csd_lapack) on one node at a time.

_ZUNCSD, _ZUNCSD_LWORK = get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=np.complex128)


@functools.lru_cache(maxsize=256)
def _csd_lwork(m: int, p: int) -> tuple[int, int]:
    """Optimal (lwork, lrwork) of zuncsd on an m x m input split at p, p."""
    work, rwork, info = _ZUNCSD_LWORK(m=m, p=p, q=p)
    if info != 0:
        raise LinAlgError(f"zuncsd workspace query failed: {info}")
    return int(work.real), int(rwork)


def _csd_lapack(u: np.ndarray, p: int):
    """LAPACK's zuncsd, as ``scipy.linalg.cossin(u, p, p, separate=True)``."""
    lwork, lrwork = _csd_lwork(u.shape[0], p)
    *_, theta, u1, u2, v1h, v2h, info = _ZUNCSD(
        u[:p, :p], u[:p, p:], u[p:, :p], u[p:, p:], lwork=lwork, lrwork=lrwork
    )
    if info != 0:
        raise LinAlgError(f"zuncsd failed: {info}")
    return (u1, u2), theta, (v1h, v2h)


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _separated(c: np.ndarray) -> np.ndarray:
    """Which rows of cosines c (k, p), with 1 above them and 0 below, are
    more than ``CSD_SEPARATION`` apart."""
    gaps = np.concatenate([1.0 - c[:, :1], c[:, :-1] - c[:, 1:], c[:, -1:]], axis=1)
    return (gaps > CSD_SEPARATION).all(axis=1)


def _probe(u11: np.ndarray):
    """``(svd, separated)`` for a (k, p, p) stack of U11 blocks.

    ``svd`` is ``np.linalg.svd(u11)``, U11 = L1 diag(c) R1h per item, and
    ``separated`` is ``_separated(c)``.  Haar inputs are separated;
    permutations, phased, controlled and identity blocks are not: their
    cosines sit at 0 or 1 or repeat.  When gesdd does not converge on the
    stack, ``svd`` is None and no item is separated.
    """
    try:
        svd = np.linalg.svd(u11)
    except LinAlgError:
        return None, np.zeros(len(u11), dtype=bool)
    return svd, _separated(svd[1])


def _split_index_groups(c: np.ndarray, items: np.ndarray):
    """``(k, group)`` pairs: the items of ``items`` with k = count(c > 1/sqrt(2)).

    A group of one item is its index alone, so that indexing a stack with it
    gives that item's matrix and the kernel runs on single matrices, with
    less numpy overhead and the same bits.
    """
    ks = np.count_nonzero(c[items] > np.sqrt(0.5), axis=1)
    for k in sorted(set(ks.tolist())):
        group = items[ks == k]
        yield k, (int(group[0]) if len(group) == 1 else group)


def _csd_thin(u11, u21, l1, c, r1h, k: int):
    """``(U1, U2, cos, sin, V1h)`` of the thin split of [U11; U21].

    The blocks are single matrices or stacks of them that share the split
    index k = count(c > 1/sqrt(2)) of the SVDs U11 = L1 diag(c) R1h, and
    every division is by a sine or cosine of at least 1/sqrt(2):
    * columns with c <= 1/sqrt(2) keep L1 and R1, and L2 = U21 R1 / s;
    * the other columns span the complement P of those L2 columns.  The SVD
      P† U21 R1_hi = W Σ Qh gives their sines s = σ; R1_hi is rotated by Q,
      L2_hi = P W and L1_hi = U11 R1_hi / c with c = sqrt(1 - σ²).
    The angles come out in increasing order, as zuncsd returns them: a
    middle branch that is decomposed again (the 4-party cut does this) is
    then already in zuncsd's form, so its outer factors are identities and
    are stripped.
    Clustered or degenerate cosines need no special case: any orthonormal
    basis of a repeated singular space serves, and the cosines and sines
    that divide are never below 1/sqrt(2).  Every product is one BLAS call
    per item, the same on a single matrix as on a stack, so an item's
    factors do not depend on the stack it is in.
    """
    p = u11.shape[-1]
    r1 = _ct(r1h)
    t = u21 @ r1[..., k:]
    s_lo = np.linalg.norm(t, axis=-2)
    l2_lo = t / s_lo[..., None, :]
    basis, _ = np.linalg.qr(l2_lo, mode="complete")
    comp = basis[..., p - k :]
    w, s_hi, qh = np.linalg.svd(_ct(comp) @ (u21 @ r1[..., :k]))
    w, s_hi, qh = w[..., ::-1], s_hi[..., ::-1], qh[..., ::-1, :]  # increasing sines
    r1_hi = r1[..., :k] @ _ct(qh)
    c_hi = np.sqrt(1.0 - s_hi**2)
    u1 = np.concatenate([(u11 @ r1_hi) / c_hi[..., None, :], l1[..., k:]], axis=-1)
    u2 = np.concatenate([comp @ w, l2_lo], axis=-1)
    cos = np.concatenate([c_hi, c[..., k:]], axis=-1)
    sin = np.concatenate([s_hi, s_lo], axis=-1)
    v1h = _ct(np.concatenate([r1_hi, r1[..., k:]], axis=-1))
    return u1, u2, cos, sin, v1h


def _csd_v2h(u1, u2, cos, sin, u12, u22) -> np.ndarray:
    """V2h of a split, or of a stack of splits: row j is -U1_j† U12 / s_j
    when s_j >= c_j, else U2_j† U22 / c_j.

    Items of one split index nearly always have one pattern of the test and
    share each product; otherwise every item is its own call.
    """
    from_s = sin >= cos
    rows = from_s.reshape(-1, from_s.shape[-1])
    if not (rows == rows[0]).all():
        return np.stack([_csd_v2h(*(a[j] for a in (u1, u2, cos, sin, u12, u22))) for j in range(len(u1))])
    s_rows, c_rows = np.flatnonzero(rows[0]), np.flatnonzero(~rows[0])
    v2h = np.empty(u12.shape, dtype=complex)
    v2h[..., s_rows, :] = -(_ct(u1[..., s_rows]) @ u12) / sin[..., s_rows, None]
    v2h[..., c_rows, :] = (_ct(u2[..., c_rows]) @ u22) / cos[..., c_rows, None]
    return v2h


def _real_row_maxima(u1, u2, v1h) -> None:
    """Make the largest entry of each V1h row real and positive, in place.

    Row j of V1h is divided by that entry's phase and column j of U1 and U2
    is multiplied by it, so U1 C V1h and U2 S V1h keep their values.  gesdd
    gives some columns of an input already in cosine-sine form the sign -1;
    with this rule their outer factors stay identities and are stripped.
    """
    rows = v1h.reshape(-1, v1h.shape[-1])
    top = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)].reshape(v1h.shape[:-1])
    phase = top / np.abs(top)
    v1h /= phase[..., None]
    u1 *= phase[..., None, :]
    u2 *= phase[..., None, :]


def _angles(sin: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """θ = arctan2(sin, cos), one call per item.

    numpy's arctan2 on a whole stack rounds some entries differently from
    the same item alone (vector lanes against the scalar tail), so each
    item's row is its own call.
    """
    if sin.ndim == 1:
        return np.arctan2(sin, cos)
    theta = np.empty(sin.shape)
    for j in range(len(sin)):
        theta[j] = np.arctan2(sin[j], cos[j])
    return theta


def _csd_separated(u: np.ndarray, p: int, svd, n: int):
    """``((U1, U2), theta, (V1h, V2h))`` of the p, p split of u, a matrix or a stack.

    The two-SVD kernel: ``svd`` is the SVD of u's U11 blocks, whose split
    index is n for every item, and V1h's row maxima are made real.
    """
    u1, u2, cos, sin, v1h = _csd_thin(u[..., :p, :p], u[..., p:, :p], *svd, n)
    _real_row_maxima(u1, u2, v1h)
    v2h = _csd_v2h(u1, u2, cos, sin, u[..., :p, p:], u[..., p:, p:])
    return (u1, u2), _angles(sin, cos), (v1h, v2h)


# ---------------------------------------------------------------------------
# 2 x dB core


def _rotations(theta: np.ndarray) -> np.ndarray:
    """(k, p, 2, 2) middle branches: [[cos θb, -sin θb], [sin θb, cos θb]] for branch b."""
    c = np.cos(theta)
    s = np.sin(theta)
    return np.stack([c, -s, s, c], axis=-1).reshape(theta.shape + (2, 2)).astype(complex)


def _two_by_d_core(u: np.ndarray, db: int, svd=None) -> list:
    """Alternating [A, B, A] stacks for a 2 x db unitary, or for a stack of them.

    The block form [[U00, U01], [U10, U11]] with U00 diagonalized and the
    off-diagonal blocks rotated to nonnegative diagonals is exactly the
    cosine-sine decomposition u = (E0 + E1) CS (F0 + F1); the CS factor is
    controlled from B in the computational basis with 2x2 rotation branches.
    On every route below the factors are unitary to round-off; the textbook
    per-column normalization is not, when an angle degenerates.

    A (k, 2db, 2db) stack gives stacks with a leading k axis.  Each item
    takes one of three routes:
    * already controlled from A (both off-diagonal blocks vanish): the
      diagonal blocks are the outer branches and the middle is the identity;
    * below ``CSD_SVD_MIN_DIM``, or when gesdd does not converge on the
      stack's U11 blocks: zuncsd, one call per item.  The stacked kernel's
      fixed cost per call is several zuncsd calls at these sizes, so it
      gains only on stacks of many items, and an item's route must not
      depend on its stack;
    * every other item: the two-SVD kernel (``_csd_separated``) on one
      stack per split index, with V1h's row maxima made real, whatever the
      cosines.
    ``svd``, when the caller has it, is the SVD of every item's U11 block,
    so the items need no SVD of their own.
    """
    if u.ndim == 2:
        return [g[0] for g in _two_by_d_core(u[None], db)]
    k = len(u)
    left = np.empty((k, 2, db, db), dtype=complex)
    right = np.empty((k, 2, db, db), dtype=complex)
    theta = np.zeros((k, db))
    ctrl = np.abs(u[:, :db, db:]).max(axis=(1, 2)) <= IDENTITY_TOL
    ctrl &= np.abs(u[:, db:, :db]).max(axis=(1, 2)) <= IDENTITY_TOL
    if ctrl.any():
        left[ctrl, 0], left[ctrl, 1] = u[ctrl, :db, :db], u[ctrl, db:, db:]
        right[ctrl] = np.eye(db)
    rest = np.flatnonzero(~ctrl)
    if 2 * db < CSD_SVD_MIN_DIM:
        svd = None
    elif svd is None:
        svd = _probe(u[rest, :db, :db])[0]
    else:
        svd = [a[rest] for a in svd]
    if svd is None:
        for j in rest:
            (left[j, 0], left[j, 1]), theta[j], (right[j, 0], right[j, 1]) = _csd_lapack(u[j], db)
    else:
        for n, at in _split_index_groups(svd[1], np.arange(len(rest))):
            j = rest[at]
            factors = _csd_separated(u[j], db, [a[at] for a in svd], n)
            (left[j, 0], left[j, 1]), theta[j], (right[j, 0], right[j, 1]) = factors
    # branch b of the middle stack is the rotation by θb on A when B is |b>
    mid = _rotations(theta)
    mid[ctrl] = np.eye(2)  # +0.0 where -sin 0 gives -0.0, as np.eye has
    return [left, mid, right]


# ---------------------------------------------------------------------------
# general recursion


def _pad_to(gates: list, length: int, da: int, db: int) -> list:
    k = len(gates[0])
    pad = range(len(gates), length)
    return gates + [_eye_stack(k, da, db) if i % 2 == 0 else _eye_stack(k, db, da) for i in pad]


def _merge(l1: list, l2: list, d1: int, d2: int, db: int) -> list:
    """Position-wise direct sum of two alternating lists on A-dims d1 and d2."""
    n = max(len(l1), len(l2))
    out = []
    for i, (a, b) in enumerate(zip(_pad_to(l1, n, d1, db), _pad_to(l2, n, d2, db))):
        if i % 2 == 0:
            out.append(np.concatenate([a, b], axis=1))
        else:
            m = np.zeros((len(a), db, d1 + d2, d1 + d2), dtype=complex)
            m[:, :, :d1, :d1] = a
            m[:, :, d1:, d1:] = b
            out.append(m)
    return out


def _compress(u: np.ndarray, yd: int):
    """(V', u V) with V = I_yd ⊕ V': V' compresses the upper-right yd rows of
    u onto its first yd columns, so (u V)[:yd, 2*yd:] vanishes.

    V' is ``compress_rows``'s: one SVD per item and the standard-basis
    completion of its leading right singular vectors.  ``_split`` takes it,
    for the unseparated nodes of ``_halve`` too; a separated node of
    ``_halve`` takes V' = I on even da and one QR on odd da instead.
    """
    vp = compress_rows(u[..., :yd, yd:], yd)
    x = u.copy()
    x[..., yd:] = u[..., yd:] @ vp
    return vp, x


def _split(u: np.ndarray, da: int, db: int):
    """(V', W0, X) with u = X W† V† for y = da // 2, yd = y*db.

    V = I_yd ⊕ V' (``_compress``).  W = W0 ⊕ I and W0 is the Gram-Schmidt
    completion (``complete_isometry``) of the first yd rows of u V,
    restricted to the first 2*yd columns, to a unitary.  X = u V W.  Only the
    blocks V' and W0 are returned and only they are multiplied: X is u with
    its last columns times V', then its first 2*yd columns times W0.  A stack
    of inputs gives stacks of V', W0 and X.
    """
    yd = (da // 2) * db
    vp, x = _compress(u, yd)
    w0 = complete_isometry(x[..., :yd, : 2 * yd])
    x[..., : 2 * yd] = x[..., : 2 * yd] @ w0
    return vp, w0, x


def _fused_completion(r1: np.ndarray, r2: np.ndarray, svd, n: int):
    """``(U1, U2, cos, sin, V1h)``: the thin split of R† for rows R = [R1 R2], or a stack of them.

    ``svd`` is the SVD R1 = L1 diag(c) R1h, so R1† = R1h† diag(c) L1† and
    the items share the split index n.  V1h's row maxima are made real.
    With the free factor fixed,

        W0 = (U1 ⊕ U2) CS(θ) (V1h ⊕ -I)

    is unitary with first block column [U1 C V1h; U2 S V1h] = R†, so it
    completes R: R W0 = [I | 0].
    """
    l1, c, r1h = svd
    u1, u2, cos, sin, v1h = _csd_thin(_ct(r1), _ct(r2), _ct(r1h), c, _ct(l1), n)
    _real_row_maxima(u1, u2, v1h)
    return u1, u2, cos, sin, v1h


def _lower_right(d2: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """(D2 ⊕ I) V'†, the lower diagonal block of (D ⊕ I) V†, for one item or a stack."""
    vh = _ct(vp)
    yd = d2.shape[-1]
    return np.concatenate([d2 @ vh[..., :yd, :], vh[..., yd:, :]], axis=-2)


def _halve(u: np.ndarray, da: int, db: int):
    """(children, mid) of one recursion level on a (k, N, N) stack u.

    u = (X1 ⊕ X2) mid (Y1 ⊕ Y2) per item, with X1, Y1 on A-dim y = da // 2
    and X2, Y2 on da - y.  ``children`` is [[X1; Y1; X2; Y2]], one 4k stack,
    when da is even, and [[X1; Y1], [X2; Y2]] when it is odd.  Everything
    else this level computes is dropped on return, before the recursion.

    V = I_yd ⊕ V' is any unitary with (u V)[:yd, 2*yd:] = 0.  Then
    u V = X W† with W = W0 ⊕ I, where W0 is any unitary that completes the
    rows R = (u V)[:yd, :2*yd].  W0† viewed as a 2 x (y*db) unitary has the
    3-gate core W0† = C T D, with C and D block diagonal, so
    u = X (C ⊕ I) (T ⊕ I) (D ⊕ I) V†.  V acts on columns yd: alone, so R's
    left block R1 is u[:yd, :yd], bit for bit, before V' is known, and its
    cosines (``_probe``) choose V' and W0 per item:
    * separated, at every size: V' takes no SVD.  On even da the block
      (u V)[:yd, 2*yd:] has no columns, so V' = I and u serves as u V with
      no copy and no product.  On odd da V' = Q from the complete QR
      B† = Q [R; 0] of B = u[:yd, yd:], one stacked call per split index,
      since then B Q = [R†, 0].  The cosine-sine step supplies the
      completion.  From the thin split of R† (``_fused_completion``, one
      stack per split index; two SVDs and a QR per item, where the
      completion it replaces is a Gram-Schmidt loop over candidates),
      W0 = (U1 ⊕ U2) CS (V1h ⊕ -I), so C = (V1h† ⊕ I) and D = (U1† ⊕ -U2†)
      with no completion and no second cosine-sine step.  X's upper-left
      block is the identity, and only its block X[yd:, yd:2*yd] =
      (u V)[yd:, :yd] U1 S - (u V)[yd:, yd:2*yd] U2 C is formed;
    * unseparated (permutations, phased, controlled and identity blocks):
      ``_split`` on their sub-stack, V' from ``_compress`` and the
      Gram-Schmidt completion, then ``_two_by_d_core`` on W0†.  Their bases
      make the counts pinned for structured inputs, and each item's bits do
      not depend on the stack it is in.
    """
    k, big = len(u), u.shape[-1]
    y = da // 2
    yd = y * db
    right = np.empty((k, 2, yd, yd), dtype=complex)
    t_g = np.empty((k, yd, 2, 2), dtype=complex)
    x1 = np.empty((k, yd, yd), dtype=complex)
    x2 = np.empty((k, big - yd, big - yd), dtype=complex)
    y2 = np.empty((k, big - yd, big - yd), dtype=complex)

    # V acts on columns yd: alone, so R1 = (u V)[:yd, :yd] is u's, bit for bit
    svd, sep = _probe(u[:, :yd, :yd])
    if sep.any():
        for n, at in _split_index_groups(svd[1], np.flatnonzero(sep)):
            if da % 2 == 0:
                # V' = I: (u V)[:yd, 2*yd:] has no columns
                x, i = u, at
            else:
                # B† = Q [R; 0] for B = u[:yd, yd:], so B Q = [R†, 0]: V' = Q
                vp = np.linalg.qr(_ct(u[at, :yd, yd:]), mode="complete")[0]
                x, i = np.concatenate([u[at, :, :yd], u[at, :, yd:] @ vp], axis=-1), Ellipsis
            # x[i] is u V for the items at
            u1, u2, cos, sin, v1h = _fused_completion(
                x[i, :yd, :yd], x[i, :yd, yd : 2 * yd], [a[at] for a in svd], n
            )
            t_g[at] = _rotations(_angles(sin, cos))
            c, s = t_g[at, :, 0, 0].real[..., None, :], t_g[at, :, 1, 0].real[..., None, :]
            x1[at] = _ct(v1h)
            x2[at, :, :yd] = (x[i, yd:, :yd] @ u1) * s - (x[i, yd:, yd : 2 * yd] @ u2) * c
            x2[at, :, yd:] = x[i, yd:, 2 * yd :]
            right[at, 0], right[at, 1] = _ct(u1), -_ct(u2)
            y2[at] = right[at, 1] if da % 2 == 0 else _lower_right(right[at, 1], vp)
    rest = np.flatnonzero(~sep)
    if rest.size:
        vp, w0, xr = _split(u[rest], da, db)
        # U11 of W0† is R1, bit for bit: W0's first yd columns are R†
        rest_svd = None if svd is None else [a[rest] for a in svd]
        c_g, t_g[rest], right[rest] = _two_by_d_core(_ct(w0), yd, rest_svd)
        x1[rest] = xr[:, :yd, :yd] @ c_g[:, 0]
        x2[rest, :, :yd] = xr[:, yd:, yd : 2 * yd] @ c_g[:, 1]
        x2[rest, :, yd:] = xr[:, yd:, 2 * yd :]
        y2[rest] = _lower_right(right[rest, 1], vp)
    y1 = right[:, 0]

    # middle gate: t_g's branch r * db + b acts on the pair (|r>, |y + r>)
    # of the A side when B is |b>; every other A level is left alone
    rr = np.arange(y)[:, None] + y * np.arange(2)
    mid = _eye_stack(k, db, da)
    mid[:, :, rr[:, :, None], rr[:, None, :]] = t_g.reshape(k, y, db, 2, 2).transpose(0, 2, 1, 3, 4)

    if da % 2 == 0:
        return [np.concatenate([x1, y1, x2, y2])], mid
    return [np.concatenate([x1, y1]), np.concatenate([x2, y2])], mid


def _sandwich_gates(u: np.ndarray, da: int, db: int) -> list:
    """Full alternating stack lists of length exactly g(da), one per item of u.

    u is a (k, da*db, da*db) stack; a single matrix goes in as ``u[None]``.
    Each level of the recursion is one call on the stack of all its nodes of
    one size: the four children of every item go down together as one stack
    when da is even, and as two stacks (A-dims y and y + 1) when it is odd.
    """
    k = len(u)
    if da == 1:
        return [u[:, None].copy()]
    if db == 1:
        gates = [_eye_stack(k, da, 1), u[:, None].copy(), _eye_stack(k, da, 1)]
        return _pad_to(gates, sandwich_bound(da), da, 1)
    if da == 2:
        return _two_by_d_core(u, db)

    y = da // 2
    children, mid = _halve(u, da, db)
    del u
    # pop the children so that the callee holds the only reference
    if len(children) == 1:
        both = _sandwich_gates(children.pop(), y, db)
        lo, hi = [g[: 2 * k] for g in both], [g[2 * k :] for g in both]
    else:
        lo = _sandwich_gates(children.pop(0), y, db)
        hi = _sandwich_gates(children.pop(), da - y, db)
    left = _merge([g[:k] for g in lo], [g[:k] for g in hi], y, da - y, db)
    right = _merge([g[k:] for g in lo], [g[k:] for g in hi], y, da - y, db)
    return left + [mid] + right


@dataclass(frozen=True, eq=False)
class SandwichResult:
    """Alternating controlled-gate factorization with its count bound.

    ``positions`` gives each kept gate's 1-based slot in the full alternating
    product (odd = controlled from A, even = from B); identity slots were
    stripped.  ``length`` is the full alternating length before stripping.
    """

    circuit: Circuit
    bound: int
    positions: tuple[int, ...]
    length: int


def _controlled_records(spec: list):
    """Records of the non-identity gates of ``spec``, and their places in it.

    ``spec`` lists ``(controls, target, stack)`` in product order, where
    ``stack`` has shape ``ctrl_dims + (d, d)``: one axis per control axis,
    then the branch on the target.  The gates of one (controls, target,
    shape) are tested for the identity as one stack and built as one
    ``controlled_stack``.  When every gate is an identity, an exact identity
    in the place of the first is kept, so no circuit is empty.
    """
    groups: dict = {}
    for i, (c, t, s) in enumerate(spec):
        groups.setdefault((c, t, s.shape), []).append(i)
    records = {}
    for (c, t, shape), members in groups.items():
        stack = np.stack([spec[i][2] for i in members]).reshape((len(members), -1) + shape[-2:])
        keep = ~_is_identity(stack)
        if not keep.all():
            stack, members = stack[keep], [i for i, k in zip(members, keep.tolist()) if k]
        records.update(zip(members, _stack_records(c, t, shape, stack)))
    if not records:
        c, t, s = spec[0]
        records[0] = _stack_records(c, t, s.shape, _eye_stack(1, math.prod(s.shape[:-2]), s.shape[-1]))[0]
    kept = sorted(records)
    return [records[i] for i in kept], kept


def _stack_records(controls, target: int, shape: tuple, stack: np.ndarray) -> list:
    """Records of a (n, k, d, d) stack of gates whose k branches run over control dims ``shape[:-2]``."""
    ctrl_dims = shape[:-2]
    index = np.broadcast_to(np.arange(stack.shape[1]).reshape(ctrl_dims), (len(stack),) + ctrl_dims)
    return controlled_stack(controls, (target,), stack, index)


def decompose_sandwich(u, da: int, db: int) -> SandwichResult:
    """Sandwich form of a bipartite unitary with at most g(da) gates."""
    u = unitary_input(u, (da, db))
    gates = [g[0] for g in _sandwich_gates(u[None], da, db)]
    records, kept = _controlled_records([((i % 2,), 1 - i % 2, g) for i, g in enumerate(gates)])
    circuit = Circuit(bipartite_space(da, db), tuple(records))
    return SandwichResult(circuit, sandwich_bound(da), tuple(i + 1 for i in kept), len(gates))


# ---------------------------------------------------------------------------
# Schmidt-rank-2 --> controlled form


def _quadratic_roots(a: complex, b: complex, c: complex):
    """Roots (alpha, beta) of a*alpha^2 + b*alpha*beta + c*beta^2 = 0 in P^1."""
    scale = max(abs(a), abs(b), abs(c))
    if scale < 1e-13:
        raise DegenerateRankTwoError("root equation vanishes identically")
    a, b, c = a / scale, b / scale, c / scale
    tiny = 1e-12
    if abs(a) < tiny and abs(c) < tiny:
        return (1.0, 0.0), (0.0, 1.0)
    if abs(a) < tiny:
        # c beta^2 + b alpha beta = 0: beta = 0 or beta = -b/c
        return (1.0, 0.0), (1.0, -b / c)
    if abs(c) < tiny:
        # a alpha^2 + b alpha beta = 0: alpha = 0 or alpha = -b/a
        return (0.0, 1.0), (-b / a, 1.0)
    disc = b * b - 4.0 * a * c
    if abs(disc) < 1e-18:
        raise DegenerateRankTwoError("double root in the rank-2 root equation")
    sq = np.sqrt(disc)
    if abs(a) >= abs(c):
        r1 = ((-b + sq) / (2 * a), 1.0)
        r2 = ((-b - sq) / (2 * a), 1.0)
    else:
        r1 = (1.0, (-b + sq) / (2 * c))
        r2 = (1.0, (-b - sq) / (2 * c))
    return r1, r2


def _rank1_factors(r: np.ndarray):
    w, s, vh = np.linalg.svd(r)
    if s.size > 1 and s[1] > 1e-7 * s[0]:
        raise DegenerateRankTwoError("root operator is not rank one")
    return w[:, 0], vh[0].conj()


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    ph = v[i] / abs(v[i])
    return v / ph


def rank2_to_controlled(u, da: int, db: int):
    """Convert a Schmidt-rank-2 unitary with 2-dimensional A side to controlled form.

    Writes U = A1 (x) B1 + A2 (x) B2, solves det(alpha*A1 + beta*A2) = 0 for
    the two rank-one root operators |x_j><y_j|, and rotates the (orthonormal,
    by unitarity) bases {x_j}, {y_j} to the computational basis.  The input
    goes through ``unitary_input``.

    Returns:
        (loc_l, gate, loc_r): 2x2 locals and a ControlledGate record with
        U = (loc_l (x) I) @ gate @ (loc_r (x) I).
    """
    from .schmidt import operator_schmidt

    u = unitary_input(u, (da, db))
    if da != 2:
        raise PreconditionError("controlling side must have dimension 2")
    dec = operator_schmidt(u, da, db)
    if dec.rank != 2:
        raise PreconditionError(f"Schmidt rank is {dec.rank}, expected 2")
    a1 = dec.terms[0][0]
    a2 = dec.terms[1][0]
    det_a1 = np.linalg.det(a1)
    det_a2 = np.linalg.det(a2)
    mixed = np.linalg.det(a1 + a2) - det_a1 - det_a2
    (al1, be1), (al2, be2) = _quadratic_roots(det_a1, mixed, det_a2)

    xs, ys = [], []
    for al, be in ((al1, be1), (al2, be2)):
        r = al * a1 + be * a2
        x, yv = _rank1_factors(r)
        xs.append(x)
        ys.append(yv)

    # unitarity makes the pairs orthogonal; polish tiny numerical overlap
    if abs(np.vdot(xs[0], xs[1])) > 1e-6 or abs(np.vdot(ys[0], ys[1])) > 1e-6:
        raise DegenerateRankTwoError("root vectors are not orthogonal")
    xs[1] = xs[1] - xs[0] * np.vdot(xs[0], xs[1])
    xs[1] /= np.linalg.norm(xs[1])
    ys[1] = ys[1] - ys[0] * np.vdot(ys[0], ys[1])
    ys[1] /= np.linalg.norm(ys[1])
    xs = [_canonical_phase(x) for x in xs]
    ys = [_canonical_phase(y) for y in ys]
    key = [(int(np.argmax(np.abs(x))), int(np.argmax(np.abs(y)))) for x, y in zip(xs, ys)]
    if key[1] < key[0]:
        xs, ys = xs[::-1], ys[::-1]

    l_rows = np.vstack([x.conj() for x in xs])
    r_cols = np.column_stack(ys)
    c = np.kron(l_rows, np.eye(db)) @ u @ np.kron(r_cols, np.eye(db))
    if max(max_abs(c[:db, db:]), max_abs(c[db:, :db])) > 1e-8:
        raise DegenerateRankTwoError("rotated form is not block diagonal")
    gate = controlled((0,), (1,), {(0,): c[:db, :db], (1,): c[db:, db:]})
    return l_rows.conj().T, gate, r_cols.conj().T


# ---------------------------------------------------------------------------
# 3-A form


def decompose_2xd_aform(u, db: int) -> Circuit:
    """Three A-controlled gates with two A-locals for a 2 x dB unitary.

    Returns the circuit [CC, Local, CC, Local, CC], every CC controlled from
    A.  The outer CCs are those of the cosine-sine core.  Its middle factor,
    controlled from B with rotation branches R(θ_b) on A, is
    (W ⊗ I) D (W† ⊗ I) for the fixed eigenbasis W of all rotations, and D is
    diagonal: controlled from A, branch 0 is diag_b(e^{iθ_b}) and branch 1
    its conjugate.  The input goes through ``unitary_input`` with dims (2, dB).
    """
    left, mid, right = _two_by_d_core(unitary_input(u, (2, db)), db)
    phase = mid[:, 0, 0] + 1j * mid[:, 1, 0]
    diag = np.stack([np.diag(phase), np.diag(phase.conj())])
    # every rotation [[cos θ, -sin θ], [sin θ, cos θ]] is W diag(e^{iθ}, e^{-iθ}) W†
    w = np.array([[1, 1], [-1j, 1j]]) / np.sqrt(2)
    cc = [ControlledGate((0,), (1,), g, np.arange(2)) for g in (left, diag, right)]
    gates = (cc[0], LocalGate(0, w), cc[1], LocalGate(0, w.conj().T), cc[2])
    return Circuit(bipartite_space(2, db), gates)


# ---------------------------------------------------------------------------
# three block-controlled factors


@dataclass(frozen=True, eq=False)
class BcuFactorization:
    """U = X @ W† @ V† with machine-checked block patterns.

    X and V† are block diagonal with respect to the first y*dB coordinates
    with identity upper-left block (A-side block structure); W† is supported
    on the first 2*y*dB coordinates plus identity (B-side structure under the
    2 x (y*dB) regrouping of that subspace).
    """

    circuit: Circuit
    x: np.ndarray
    w_dagger: np.ndarray
    v_dagger: np.ndarray
    y: int
    block_errors: tuple[float, float, float]


def decompose_bcu3(u, da: int, db: int) -> BcuFactorization:
    """Factor a bipartite unitary into three block-controlled gates (A, B, A).

    The factors are the recursion's first split, U = X W† V† with y = da // 2
    (see `_split`).  `_split` returns only the blocks V' and W0; the dense
    W† = W0† ⊕ I and V† = I ⊕ V'† are built here, because the circuit records
    them as generic gates and the block-pattern errors are measured on them.
    """
    u = unitary_input(u, (da, db))
    if da < 2:
        raise PreconditionError("A side must have dimension >= 2")
    y = da // 2
    yd = y * db
    vp, w0, x = _split(u, da, db)
    wd = np.eye(da * db, dtype=complex)
    wd[: 2 * yd, : 2 * yd] = w0.conj().T
    vd = np.eye(da * db, dtype=complex)
    vd[yd:, yd:] = vp.conj().T

    def _a_block_err(m):
        e = max(max_abs(m[:yd, yd:]), max_abs(m[yd:, :yd]))
        return max(e, max_abs(m[:yd, :yd] - np.eye(yd)))

    def _b_block_err(m):
        k = 2 * yd
        e = max(max_abs(m[k:, :k]), max_abs(m[:k, k:]))
        return max(e, max_abs(m[k:, k:] - np.eye(da * db - k)))

    errs = (_a_block_err(x), _b_block_err(wd), _a_block_err(vd))
    if max(errs) > RECON_TOL:
        raise InfeasibleError(f"block-controlled structure check failed: {errs}")
    space = bipartite_space(da, db)
    gates = tuple(GenericGate((0, 1), m, cut=1) for m in (x, wd, vd))
    return BcuFactorization(Circuit(space, gates), x, wd, vd, y, errs)
