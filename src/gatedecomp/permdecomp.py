"""Permutation-unitary machinery.

Bipartite (complex) permutations are decomposed into exactly three
controlled-permutation gates (controlled from A, B, A in the computational
basis) using a system of distinct representatives over the nonzero-block
pattern; multipartite permutations get a (2n-1)-gate generalized form.  All
the combinatorics runs on integer tables, so reconstructions are exact: the
emitted branch matrices contain only 0, 1, and (for the complex case) the
input's own phase values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .gateir import Circuit, ControlledGate, bipartite_space, multiparty_space
from .matcore import PreconditionError, as_matrix, checked_dims, perm_matrix


@dataclass(frozen=True)
class ComplexPermutation:
    """Unitary with one unit-modulus entry per row and column.

    ``targets[i]`` is the row of the nonzero entry in column ``i`` and
    ``phases[i]`` its value (all exactly 1 for a plain permutation).
    """

    dims: tuple[int, ...]
    targets: tuple[int, ...]
    phases: tuple[complex, ...]

    def __post_init__(self):
        n = math.prod(self.dims)
        if len(self.targets) != n or len(self.phases) != n:
            raise ValueError("table size does not match dims")
        if sorted(self.targets) != list(range(n)):
            raise ValueError("targets is not a bijection")
        for p in self.phases:
            if abs(abs(p) - 1.0) > 1e-12:
                raise ValueError("phases must have unit modulus")

    @property
    def is_plain(self) -> bool:
        return all(p == 1.0 for p in self.phases)

    def matrix(self) -> np.ndarray:
        n = len(self.targets)
        m = np.zeros((n, n), dtype=complex)
        for col, (row, ph) in enumerate(zip(self.targets, self.phases)):
            m[row, col] = ph
        return m

    @classmethod
    def from_matrix(cls, m, dims) -> "ComplexPermutation":
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
        return cls(dims, tuple(targets), tuple(phases))


@dataclass(frozen=True)
class AbsolutelySingular:
    """Hall-condition violation witness: rows S with |N(S)| < |S|.

    ``cols`` is the complement of the neighborhood, so the S x cols block is
    all zero and len(rows) + len(cols) exceeds the pattern size.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _kuhn_match(adj: list[list[int]], rows: list[int], allowed: set[int]):
    """Maximum matching via augmenting paths; returns col->row dict."""
    match_col: dict[int, int] = {}

    def augment(r: int, seen: set[int]) -> bool:
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


def find_sdr(pattern):
    """Distinct column representatives k_j with pattern[j][k_j] true for all j.

    On success returns the lexicographically smallest assignment (list of
    0-based column indices).  On failure returns an
    :class:`AbsolutelySingular` witness.
    """
    p = np.asarray(pattern, dtype=bool)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("pattern must be square")
    n = p.shape[0]
    adj = [list(np.flatnonzero(p[r])) for r in range(n)]

    match_col = _kuhn_match(adj, list(range(n)), set(range(n)))
    if len(match_col) < n:
        matched_rows = set(match_col.values())
        start = next(r for r in range(n) if r not in matched_rows)
        reach_rows = {start}
        reach_cols: set[int] = set()
        frontier = [start]
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

    # canonicalize: greedily fix the smallest feasible column per row
    assign: list[int] = []
    used: set[int] = set()
    for r in range(n):
        for c in adj[r]:
            if c in used:
                continue
            rest = list(range(r + 1, n))
            allowed = set(range(n)) - used - {c}
            if len(_kuhn_match(adj, rest, allowed)) == len(rest):
                assign.append(c)
                used.add(c)
                break
        else:
            raise AssertionError("matching existed but canonicalization failed")
    return assign


def block_pattern(targets, da: int, db: int) -> np.ndarray:
    """Boolean block-nonzero pattern of a bipartite permutation table."""
    p = np.zeros((da, da), dtype=bool)
    for col, row in enumerate(targets):
        p[row // db, col // db] = True
    return p


# ---------------------------------------------------------------------------
# bipartite three-stage decomposition on tables
#
# A-stage: sigma[a] permutes the B index within row a   (dA x dB int array)
# B-stage: tau[b] permutes the A index within column b  (dB x dA int array)
# Product order matches circuits: U = G1 G2 G3 applies G3 first.


def _invert(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def _swap_perm(n: int, i: int, j: int) -> np.ndarray:
    p = np.arange(n)
    p[i], p[j] = p[j], p[i]
    return p


def _perm3_stages(out_a: np.ndarray, out_b: np.ndarray, da: int, db: int):
    """Three stage tables (sigma1, tau2, sigma3) for a bipartite permutation."""
    if db == 1:
        sigma = np.zeros((da, 1), dtype=np.int64)
        tau = np.array([out_a[:, 0]])
        return sigma, tau, sigma.copy()

    pattern = np.zeros((da, da), dtype=bool)
    for k in range(da):
        for c in range(db):
            pattern[out_a[k, c], k] = True
    sdr = find_sdr(pattern)
    if isinstance(sdr, AbsolutelySingular):
        raise AssertionError("permutation block pattern cannot be absolutely singular")

    v_stage = np.tile(np.arange(db), (da, 1))  # per OUTPUT row j
    w_stage = np.tile(np.arange(db), (da, 1))  # per INPUT row k
    for j in range(da):
        k = sdr[j]
        nz = [(int(out_b[k, c]), c) for c in range(db) if out_a[k, c] == j]
        r_star, c_star = min(nz)
        v_stage[j] = _swap_perm(db, 0, r_star)
        w_stage[k] = _swap_perm(db, 0, c_star)

    # U' = V U W on tables
    up_a = np.empty_like(out_a)
    up_b = np.empty_like(out_b)
    for a in range(da):
        for b in range(db):
            bb = w_stage[a][b]
            ja, jb = out_a[a, bb], out_b[a, bb]
            up_a[a, b] = ja
            up_b[a, b] = v_stage[ja][jb]

    x_perm = np.empty(da, dtype=np.int64)
    for j in range(da):
        x_perm[sdr[j]] = j

    y_a = up_a[:, 1:]
    y_b = up_b[:, 1:] - 1
    s1, t2, s3 = _perm3_stages(y_a, y_b, da, db - 1)

    sigma1 = np.empty((da, db), dtype=np.int64)
    sigma3 = np.empty((da, db), dtype=np.int64)
    tau2 = np.empty((db, da), dtype=np.int64)
    for a in range(da):
        v_inv = _invert(v_stage[a])
        w_inv = _invert(w_stage[a])
        lift1 = np.concatenate(([0], s1[a] + 1))
        lift3 = np.concatenate(([0], s3[a] + 1))
        sigma1[a] = v_inv[lift1]
        sigma3[a] = lift3[w_inv]
    tau2[0] = x_perm
    tau2[1:] = t2
    return sigma1, tau2, sigma3


def _perm_gate(controls, targets, tables: np.ndarray, phases=None) -> ControlledGate:
    """Controlled (complex) permutation built from its permutation tables.

    ``tables`` has shape ctrl_dims + (d,): the branch for control values k
    sends target level j to ``tables[k][j]``.  ``phases``, of the same shape,
    multiplies branch k on the right by ``diag(phases[k])``.  Without phases
    each distinct table is turned into one palette entry.
    """
    d = tables.shape[-1]
    rows = tables.reshape(-1, d)
    if phases is None:
        rows, index = np.unique(rows, axis=0, return_inverse=True)
        palette = perm_matrix(rows)
    else:
        index = np.arange(len(rows))
        # a product, not phases written in place: the circuit files hold the
        # -0.0 entries that the product writes
        pairs = zip(rows, phases.reshape(-1, d))
        palette = np.stack([perm_matrix(t) @ np.diag(p) for t, p in pairs])
    return ControlledGate(controls, targets, palette, index.reshape(tables.shape[:-1]))


@dataclass(frozen=True, eq=False)
class PermSandwich:
    """Exactly three controlled-(complex-)permutation gates with U = G1 G2 G3."""

    circuit: Circuit
    sigma1: np.ndarray
    tau2: np.ndarray
    sigma3: np.ndarray


def decompose_perm3(cp: ComplexPermutation) -> PermSandwich:
    """3-gate alternating form of a bipartite (complex) permutation, exact."""
    if len(cp.dims) != 2:
        raise ValueError("expected a bipartite permutation")
    da, db = cp.dims
    out_a, out_b = np.divmod(np.asarray(cp.targets, dtype=np.int64).reshape(da, db), db)
    sigma1, tau2, sigma3 = _perm3_stages(out_a, out_b, da, db)
    phases = None if cp.is_plain else np.asarray(cp.phases, dtype=complex).reshape(da, db)
    gates = (
        _perm_gate((0,), (1,), sigma1),
        _perm_gate((1,), (0,), tau2),
        _perm_gate((0,), (1,), sigma3, phases),
    )
    return PermSandwich(Circuit(bipartite_space(da, db), gates), sigma1, tau2, sigma3)


# ---------------------------------------------------------------------------
# classical reversible-circuit mode


@dataclass(frozen=True)
class ClassicalStage:
    """One classical controlled-permutation stage.

    ``kind`` is "row" (permutes the B index within each A row) or "col"
    (permutes the A index within each B column); ``perms`` holds one
    permutation list per controlling value.
    """

    kind: str
    perms: tuple[tuple[int, ...], ...]

    def apply(self, a: int, b: int) -> tuple[int, int]:
        if self.kind == "row":
            return a, self.perms[a][b]
        return self.perms[b][a], b


def table_outputs(pairs, da: int, db: int):
    """(out_a, out_b) arrays of a bijection on the da x db table.

    ``pairs`` is an iterable of (in_a, in_b, out_a, out_b) integer rows.
    Raises ValueError unless every entry is in range, the rows name every
    input cell exactly once, and the outputs are a bijection.
    """
    out_a = np.full((da, db), -1, dtype=np.int64)
    out_b = np.full((da, db), -1, dtype=np.int64)
    for row in pairs:
        ia, ib, oa, ob = (operator.index(v) for v in row)
        if not (0 <= ia < da and 0 <= ib < db and 0 <= oa < da and 0 <= ob < db):
            raise ValueError("table entry out of range")
        if out_a[ia, ib] != -1:
            raise ValueError("duplicate input cell in table")
        out_a[ia, ib] = oa
        out_b[ia, ib] = ob
    if (out_a < 0).any():
        raise ValueError("table does not cover every input cell")
    flat = out_a.reshape(-1) * db + out_b.reshape(-1)
    if sorted(flat.tolist()) != list(range(da * db)):
        raise ValueError("table is not a bijection")
    return out_a, out_b


def decompose_perm3_classical(pairs, da: int, db: int):
    """Three classical stages (row, col, row), in application order.

    ``pairs`` is an iterable of (in_a, in_b, out_a, out_b) rows describing a
    bijection on the da x db table (checked by `table_outputs`); composing
    the returned stages first to last reproduces it exactly.
    """
    out_a, out_b = table_outputs(pairs, da, db)
    sigma1, tau2, sigma3 = _perm3_stages(out_a, out_b, da, db)
    first = ClassicalStage("row", tuple(tuple(int(x) for x in row) for row in sigma3))
    mid = ClassicalStage("col", tuple(tuple(int(x) for x in col) for col in tau2))
    last = ClassicalStage("row", tuple(tuple(int(x) for x in row) for row in sigma1))
    return first, mid, last


def apply_stages(stages, a: int, b: int) -> tuple[int, int]:
    for st in stages:
        a, b = st.apply(a, b)
    return a, b


# ---------------------------------------------------------------------------
# multipartite permutations


def _multi_perm_gates(targets: np.ndarray, dims: tuple[int, ...]):
    """List of (controls, tables) pairs, product order, 2n-1 entries.

    Each gate is controlled from n-1 parties; ``tables`` has shape
    ctrl_dims + (d,) and holds one permutation of the remaining axis per
    tuple of control values.
    """
    n = len(dims)
    d_last = dims[-1]
    d_head = math.prod(dims[:-1])
    out_a, out_b = np.divmod(targets.reshape(d_head, d_last), d_last)
    sigma1, tau2, sigma3 = _perm3_stages(out_a, out_b, d_head, d_last)

    head_axes = tuple(range(n - 1))
    head_dims = dims[:-1]
    g1 = (head_axes, sigma1.reshape(head_dims + (d_last,)))
    g3 = (head_axes, sigma3.reshape(head_dims + (d_last,)))

    if n == 2:
        return [g1, ((1,), tau2), g3]

    # recurse on every branch of the middle gate; the control schedule
    # depends on head_dims alone, so the branches share it, and the middle
    # gate's control value b becomes the last control axis
    subs = [_multi_perm_gates(tau2[b], head_dims) for b in range(d_last)]
    merged = [
        (entries[0][0] + (n - 1,), np.stack([t for _, t in entries], axis=-2))
        for entries in zip(*subs, strict=True)
    ]
    return [g1] + merged + [g3]


def decompose_multiparty_perm(cp: ComplexPermutation) -> Circuit:
    """Generalized (2n-1)-gate form of an n-party (complex) permutation, exact.

    Every gate is controlled in the computational basis from n-1 parties and
    every branch is a (complex) permutation; phases are folded into the final
    gate.
    """
    dims = cp.dims
    n = len(dims)
    if n < 2:
        raise ValueError("need at least two parties")
    targets = np.asarray(cp.targets, dtype=np.int64)
    gates_spec = _multi_perm_gates(targets, dims)

    # the final gate is controlled from the head parties and targets the last
    phases = None if cp.is_plain else np.asarray(cp.phases, dtype=complex).reshape(dims)
    records = []
    for idx, (controls, tables) in enumerate(gates_spec):
        (target_axis,) = tuple(sorted(set(range(n)) - set(controls)))
        last = phases if idx == len(gates_spec) - 1 else None
        records.append(_perm_gate(controls, (target_axis,), tables, last))
    return Circuit(multiparty_space(dims), tuple(records))
