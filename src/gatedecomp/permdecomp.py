"""Permutation-unitary machinery.

Bipartite (complex) permutations are decomposed into exactly three
controlled-permutation gates (controlled from A, B, A in the computational
basis) using a system of distinct representatives over the nonzero-block
pattern; multipartite permutations get a (2n-1)-gate generalized form.  All
the combinatorics runs on integer tables, so reconstructions are exact: the
emitted branch matrices contain only 0, 1, and (for the complex case) the
input's own phase values.

The bipartite stages are built in one loop over the B levels, each level a
few numpy operations on the whole (dA, dB) tables.  The SDR of each level
is one maximum matching, moved to the lexicographically smallest one by
exchange paths.  Augmenting and exchange paths are walked over explicit
stacks, so no step recurses and large party dimensions decompose.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .gateir import Circuit, ControlledGate, bipartite_space, multiparty_space
from .matcore import EXACT_TOL, PreconditionError, as_matrix, checked_dims, on_unit_circle
from .matcore import perm_matrix, read_permutations


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
        n = math.prod(checked_dims(self.dims))
        if len(self.targets) != n or len(self.phases) != n:
            raise ValueError("table size does not match dims")
        if sorted(self.targets) != list(range(n)):
            raise ValueError("targets is not a bijection")
        if not on_unit_circle(np.asarray(self.phases, dtype=complex)).all():
            raise ValueError("phases must be finite and of unit modulus")

    @property
    def is_plain(self) -> bool:
        return all(p == 1.0 for p in self.phases)

    def matrix(self) -> np.ndarray:
        n = len(self.targets)
        m = np.zeros((n, n), dtype=complex)
        m[self.targets, np.arange(n)] = self.phases
        return m

    @classmethod
    def from_matrix(cls, m, dims) -> "ComplexPermutation":
        """``m``'s table, entries of modulus at most EXACT_TOL read as 0; a phase of 1 is 1.0.

        PreconditionError unless each column has one nonzero, on the unit
        circle; ValueError (from the constructor) when two columns share a row.
        """
        a = as_matrix(m)
        dims = checked_dims(dims)
        n = math.prod(dims)
        if a.shape != (n, n):
            raise ValueError(f"matrix is {a.shape}, expected {(n, n)}")
        a = np.where(np.abs(a) > EXACT_TOL, a, 0)
        (rows,), (vals,), (bad,) = read_permutations(a[None])
        if bad and (np.count_nonzero(a) != n or not on_unit_circle(vals).all()):
            raise PreconditionError("matrix is not a complex permutation")
        return cls(dims, tuple(rows.tolist()), tuple(1.0 if v == 1 else v for v in vals.tolist()))


@dataclass(frozen=True)
class AbsolutelySingular:
    """Hall-condition violation witness: rows S with |N(S)| < |S|.

    ``cols`` is the complement of the neighborhood, so the S x cols block is
    all zero and len(rows) + len(cols) exceeds the pattern size.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _augment(adj: list[list[int]], owner: list[int], root: int, seen: set[int]):
    """Flip one augmenting path from row ``root``; its (rows, cols) pairs, or None.

    ``owner[c]`` is the row matched to column c, or -1 when c is free.  The
    walk is depth first over an explicit stack: each row tries its columns
    in ``adj`` order, skipping and then adding to ``seen``, and a column
    owned by a row continues the path at that row.  On success row
    ``rows[i]`` takes column ``cols[i]``.
    """
    rows, cols, tries = [root], [], [iter(adj[root])]
    while tries:
        for c in tries[-1]:
            if c not in seen:
                break
        else:  # the top row has no column left: back up one step
            tries.pop()
            rows.pop()
            if cols:
                cols.pop()
            continue
        seen.add(c)
        cols.append(c)
        r = owner[c]
        if r < 0:
            for r, c in zip(rows, cols):
                owner[c] = r
            return rows, cols
        rows.append(r)
        tries.append(iter(adj[r]))
    return None


def _kuhn_match(adj: list[list[int]]) -> list[int]:
    """Maximum matching, one augmenting path per row in order; each column's row or -1."""
    owner = [-1] * len(adj)
    for r, cols in enumerate(adj):
        if cols and owner[cols[0]] < 0:  # the walk would stop at its first column
            owner[cols[0]] = r
        else:
            _augment(adj, owner, r, set())
    return owner


def find_sdr(pattern):
    """Distinct column representatives k_j with pattern[j][k_j] true for all j.

    On success returns the lexicographically smallest assignment (list of
    0-based column indices).  On failure returns an
    :class:`AbsolutelySingular` witness.

    One maximum matching decides which.  The smallest assignment is then
    reached from that matching row by row: row r tries each smaller column
    c, and c is feasible exactly when an exchange path frees r's column for
    the row holding c, through rows after r and columns no earlier row has
    fixed.
    """
    p = np.asarray(pattern, dtype=bool)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("pattern must be square")
    n = p.shape[0]
    adj = [[c for c, x in enumerate(row) if x] for row in p.tolist()]

    owner = _kuhn_match(adj)
    if -1 in owner:
        matched_rows = set(owner) - {-1}
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
                    row = owner[c]
                    if row >= 0 and row not in reach_rows:
                        reach_rows.add(row)
                        nxt.append(row)
            frontier = nxt
        cols = tuple(c for c in range(n) if c not in reach_cols)
        return AbsolutelySingular(tuple(sorted(reach_rows)), cols)

    assign = [0] * n
    for c, r in enumerate(owner):
        assign[r] = c
    fixed: set[int] = set()  # the columns of the rows before r
    for r in range(n):
        c0 = assign[r]
        for c in adj[r]:
            if c >= c0:
                break
            if c in fixed:
                continue
            # give c to r; the row that held c looks for c0, now free
            owner[c0] = -1
            path = _augment(adj, owner, owner[c], fixed | {c})
            if path is None:
                owner[c0] = r
                continue
            for row, col in zip(*path):
                assign[row] = col
            owner[c], assign[r] = r, c
            break
        fixed.add(assign[r])
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


def _perm3_stages(out_a: np.ndarray, out_b: np.ndarray, da: int, db: int):
    """Three stage tables (sigma1, tau2, sigma3) for a bipartite permutation.

    One level per B level but the last, each on the whole (dA, m) tables of
    the current m-column problem.  An SDR of the block pattern names, for
    every output row j, an input row k; the transposition stages v (per
    output row) and w (per input row) bring the smallest B output of k's
    cells in row j to column 0, and that column becomes row ``level`` of
    tau2.  Columns 1.. of the transformed table are the next level's
    problem.  Each v and w is a transposition, so its own inverse; the
    lifts through them run last to first after the loop.
    """
    rows = np.arange(da)
    col = rows[:, None]
    levels = np.tile(np.arange(db), (da, 1))
    tau2 = np.empty((db, da), dtype=np.int64)
    stages = []
    for level in range(db - 1):
        m = db - level
        pattern = np.zeros((da, da), dtype=bool)
        pattern[out_a, col] = True
        sdr = find_sdr(pattern)
        if isinstance(sdr, AbsolutelySingular):
            raise AssertionError("permutation block pattern cannot be absolutely singular")
        k = np.array(sdr, dtype=np.int64)
        # r*, c* of output row j: the smallest B output among k's cells in row j, and its column
        key = np.where(out_a[k] == col, out_b[k], m)
        c_star = key.argmin(axis=1)
        r_star = key[rows, c_star]
        v = levels[:, :m].copy()  # per OUTPUT row j
        v[rows, r_star] = 0
        v[:, 0] = r_star
        w = levels[:, :m].copy()  # per INPUT row k
        w[k, c_star] = 0
        w[k, 0] = c_star
        # U' = V U W on tables
        up_a = out_a[col, w]
        up_b = v[up_a, out_b[col, w]]
        tau2[level, k] = rows
        stages.append((v, w))
        out_a, out_b = up_a[:, 1:], up_b[:, 1:] - 1
    tau2[db - 1] = out_a[:, 0]

    sigma1 = np.zeros((da, 1), dtype=np.int64)
    sigma3 = np.zeros((da, 1), dtype=np.int64)
    zero = np.zeros((da, 1), dtype=np.int64)
    for v, w in reversed(stages):
        sigma1 = v[col, np.concatenate((zero, sigma1 + 1), axis=1)]
        sigma3 = np.concatenate((zero, sigma3 + 1), axis=1)[col, w]
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
