"""Ancilla-assisted CNOT protocols and the binary/XOR/nonnegative rank toolkit.

The permutation protocol tracks the dA x dB index table plus a flag qubit c
on the B side that addresses a backup copy of the table: each expansion term
moves its input rectangle to the backup at the target columns, permutes it
into the target rows, and restores the displaced partial rectangle.  Terms
whose rectangles are in place skip the backup entirely.  Every emitted
nonlocal gate is a two-term controlled permutation, so it costs two bipartite
CNOTs via the flag-ancilla construction (one qubit per side).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gateir import (
    Ancilla,
    Circuit,
    CnotGate,
    ControlledGate,
    GenericGate,
    PartySpace,
    controlled_stack,
)
from .matcore import DEFAULT_EPS, EXACT_TOL, PreconditionError, is_unitary, max_abs
from .matcore import perm_matrix, read_binary, require_square, unitary_input
from .schmidt import _rank, _svd, matrix_rank, schmidt_rank


# ---------------------------------------------------------------------------
# partial-permutation expansions


def _check_partial_permutation(u, da: int, db: int) -> np.ndarray:
    """``u`` as an int64 0/1 matrix of side dA dB with at most one 1 per row and column."""
    b = read_binary(u)
    n = da * db
    if b.shape != (n, n):
        raise ValueError(f"matrix is {b.shape}, expected {(n, n)}")
    if (b.sum(axis=0) > 1).any() or (b.sum(axis=1) > 1).any():
        raise PreconditionError("more than one nonzero in a row or column")
    return b


@dataclass(frozen=True, eq=False)
class PartialPermExpansion:
    """Exact expansion U = sum_j A_j (x) B_j into partial-permutation factors."""

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    q: int
    bound_components: tuple[int, int, int, int, int]  # dA^2, dB^2, dA*r, dB*r, 2^r
    schmidt_rank: int

    def reconstruct(self) -> np.ndarray:
        """The sum of the terms' Kronecker products, as one matmul.

        The zero matrix when there are no terms.  Integer factors are
        multiplied in float64, on BLAS, which is exact while every sum stays
        below 2**53, as it does for 0/1 factors; the result has their dtype.
        """
        da, db = math.isqrt(self.bound_components[0]), math.isqrt(self.bound_components[1])
        if not self.terms:
            return np.zeros((da * db, da * db), dtype=np.int64)
        a = np.stack([a for a, _ in self.terms]).reshape(self.q, -1)
        b = np.stack([b for _, b in self.terms]).reshape(self.q, -1)
        dtype = np.result_type(a, b)
        if dtype.kind in "biu":
            a, b = a.astype(float), b.astype(float)
        # sum_j A_j[i, k] B_j[r, s] over j, reordered from (i, k, r, s) to (i, r, k, s)
        out = (a.T @ b).astype(dtype, copy=False).reshape(da, da, db, db)
        return out.transpose(0, 2, 1, 3).reshape(da * db, da * db)


def _group_blocks(r: np.ndarray, da: int, db: int):
    """Distinct-nonzero-block grouping: terms (A_S, D_l) from a realigned 0/1 matrix.

    Row j * da + k of ``r`` is block (j, k) of the matrix, a db x db block
    read row-major.  The nonzero rows are grouped by value, in order of
    first appearance; D_l is the group's block and A_S marks its cells.
    """
    cells = np.flatnonzero(r.any(axis=1))
    packed = np.packbits(r[cells], axis=1)  # a 0/1 row, 8 entries a byte
    data, width = packed.tobytes(), packed.shape[1]
    groups: dict[bytes, int] = {}
    group_of, firsts = [], []
    for i in range(len(cells)):
        g = groups.setdefault(data[i * width : (i + 1) * width], len(groups))
        if g == len(firsts):
            firsts.append(i)
        group_of.append(g)
    q = len(firsts)
    a = np.zeros((q, da * da), dtype=np.int64)
    a[group_of, cells] = 1
    return list(zip(a.reshape(q, da, da), r[cells[firsts]].reshape(q, db, db)))


def pp_expansion(u, da: int, db: int) -> PartialPermExpansion:
    """Group equal blocks of a (partial) permutation into an exact expansion.

    Both the B-side and the A-side block groupings are computed and the one
    with fewer terms is returned, so q never exceeds
    min(dA^2, dB^2, dA*r, dB*r, 2^r) with r the Schmidt rank.
    """
    b = _check_partial_permutation(u, da, db)
    r = b.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)  # realigned
    terms_b = _group_blocks(r, da, db)
    # transposed grouping: the realignment of the A <-> B swapped matrix is r.T,
    # whose rows are the distinct dA x dA blocks indexed by B coordinates
    terms_a = [(blk, a) for a, blk in _group_blocks(r.T, db, da)]
    terms = terms_b if len(terms_b) <= len(terms_a) else terms_a
    # the rank of r's real nonzero part: zero rows and columns leave its singular values
    nonzero = r != 0
    rank = matrix_rank(r[nonzero.any(axis=1)][:, nonzero.any(axis=0)])
    comps = (da * da, db * db, da * rank, db * rank, 2**rank if rank < 60 else 2**60)
    return PartialPermExpansion(tuple(terms), len(terms), comps, rank)


# ---------------------------------------------------------------------------
# two-term controlled gates via one flag qubit per side


def _check_projector_pair(p1, p2):
    p1 = require_square(p1)
    p2 = require_square(p2)
    d = p1.shape[0]
    for p in (p1, p2):
        if max_abs(p @ p - p) > DEFAULT_EPS or max_abs(p - p.conj().T) > DEFAULT_EPS:
            raise PreconditionError("branch selectors must be orthogonal projectors")
    if max_abs(p1 + p2 - np.eye(d)) > DEFAULT_EPS:
        raise PreconditionError("projectors must sum to the identity")
    if max_abs(p1 @ p2) > DEFAULT_EPS:
        raise PreconditionError("projectors must be orthogonal")
    r1 = int(round(np.real(np.trace(p1))))
    r2 = int(round(np.real(np.trace(p2))))
    if r1 == 0 or r2 == 0:
        raise PreconditionError("both projectors must be nonzero (two-term gate)")
    return p1, p2


_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _with_identity(branch: np.ndarray) -> np.ndarray:
    """The two-term palette [identity, branch]: index 1 applies ``branch``."""
    d = len(branch)
    out = np.zeros((2, d, d), dtype=complex)
    out[0].flat[:: d + 1] = 1.0
    out[1] = branch
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_FLAG_PALETTE = _frozen(_with_identity(_X))
_BOTH = _frozen(np.arange(2))


def _flag_apply(copy, targets, palettes) -> list[ControlledGate]:
    """For each palette, the gate applying ``palette[f]`` on ``targets`` for the value f of the flag ``copy`` writes."""
    return controlled_stack((copy.target_axis,), targets, palettes, [_BOTH] * len(palettes))


def _flag_palindrome(flag, copy, apply):
    """Flag, copy, apply, copy, flag: one two-term controlled gate via 2 CNOTs.

    The gate ``flag`` flips the flag qubit where the second term applies;
    the CNOT ``copy`` copies it to the other side's flag qubit, on which
    ``apply`` (a ``_flag_apply`` gate) is controlled; the copy and the flag
    are then undone.  The list is a palindrome, so product order and
    application order agree.  Records are immutable, so one ``copy`` serves
    every gate of a circuit, and one ``apply`` every gate of its palette.
    """
    return [flag, copy, apply, copy, flag]


def emit_two_term_cnot(p1, v1, p2, v2) -> Circuit:
    """Implement P1 (x) V1 + P2 (x) V2 with one flag qubit per side and 2 CNOTs.

    The sequence is V_Aa, CNOT_ab, W_bB, CNOT_ab, V_Aa: the A-side flag a
    marks which projector fired, the CNOT copies it to the B-side flag b,
    which selects V1 or V2; both flags are erased afterwards.
    """
    p1, p2 = _check_projector_pair(p1, p2)
    v1 = require_square(v1)
    v2 = require_square(v2)
    da = p1.shape[0]
    db = v1.shape[0]
    if v2.shape[0] != db:
        raise ValueError("branch unitaries must act on the same space")
    for v in (v1, v2):
        if not is_unitary(v):
            raise PreconditionError("branch operators must be unitary")
    space = PartySpace(
        parties=(("A", da), ("B", db)),
        ancillas=(Ancilla("a", "A", 2, 0), Ancilla("b", "B", 2, 0)),
    )
    v_flag = GenericGate((0, 2), np.kron(p1, np.eye(2)) + np.kron(p2, _X), cut=1)
    copy = CnotGate(2, (0, 1), 3, (0, 1))
    (apply,) = _flag_apply(copy, (1,), [np.stack([v1, v2])])
    gates = _flag_palindrome(v_flag, copy, apply)
    return Circuit(space, tuple(gates)).with_ebit_estimate(1.0)


# ---------------------------------------------------------------------------
# the backup-copy permutation protocol


def _chain_closure(mapping: dict[int, int], n: int) -> np.ndarray:
    """Close a partial injection into a full permutation, chain by chain.

    Open chains a1 -> a2 -> ... -> am are closed with am -> a1; untouched
    indices stay fixed.  Deterministic: chain heads and cycles are visited in
    increasing order of their smallest element.
    """
    perm = np.arange(n)
    ins = set(mapping)
    outs = set(mapping.values())
    visited: set[int] = set()
    for head in sorted(ins - outs):
        x = head
        while x in mapping:
            perm[x] = mapping[x]
            visited.add(x)
            x = mapping[x]
        perm[x] = head
    for s in sorted(ins):
        if s in visited:
            continue
        x = s
        while True:
            perm[x] = mapping[x]
            visited.add(x)
            x = mapping[x]
            if x == s:
                break
    return perm


def _pp_support(m: np.ndarray):
    """(ins, outs, mapping in->out) of a partial permutation matrix."""
    outs_idx, ins_idx = np.nonzero(m)
    mapping = dict(zip(ins_idx.tolist(), outs_idx.tolist()))
    return set(mapping), set(mapping.values()), mapping


@dataclass(frozen=True, eq=False)
class BackupProtocolResult:
    """Backup-copy protocol circuits for a bipartite permutation.

    ``base`` acts on (A, B, c) with at most 3q two-term controlled-permutation
    gates; ``expanded`` additionally carries the flag qubits a, b and realizes
    every two-term gate with 2 bipartite CNOTs (at most 6q in total).
    """

    base: Circuit
    expanded: Circuit
    two_term_count: int
    cnot_count: int


def _term_gates(support_a, support_b, da: int, db: int, use_backup: bool):
    """Application-order gates of one expansion term, as (side, tables, active) triples.

    The term is given by the ``_pp_support`` of its two factors.  Side 0 is
    controlled from A and permutes the (B, c) pair, row-major (b-major,
    c-minor); side 1 is controlled from (B, c) and permutes A.  Every gate
    applies one branch on an active set of control values and the identity
    elsewhere: ``tables`` holds the permutation tables [identity, branch] of
    its palette, and ``active`` lists the control values where the branch
    applies, row-major over the control axes: A rows (side 0), or 2 b + c
    for B column b of copy c (side 1).  The move and the restore share one
    ``tables`` array.
    """
    ins_a, outs_a, map_a = support_a
    ins_b, outs_b, map_b = support_b
    dbc = 2 * db
    gates = []
    pi = _chain_closure(map_a, da)
    permutes_a = (pi != np.arange(da)).any()
    in_place = (ins_a == outs_a) and (ins_b == outs_b)

    if in_place and not use_backup:
        btil = _chain_closure(map_b, db)
        if (btil != np.arange(db)).any():
            # column permutation within the rectangle rows, on the c=0 copy
            t = np.arange(dbc)
            t[0::2] = 2 * btil
            gates.append((0, np.array((np.arange(dbc), t)), list(ins_a)))
        if permutes_a:
            gates.append((1, np.array((np.arange(da), pi)), [2 * b for b in ins_b]))
        return gates

    # move the rectangle to the backup copy at the target columns
    t = np.arange(dbc)
    for b in ins_b:
        t[2 * b], t[2 * map_b[b] + 1] = 2 * map_b[b] + 1, 2 * b
    move = np.array((np.arange(dbc), t))
    gates.append((0, move, list(ins_a)))
    # permute into the target rows inside the backup copy
    if permutes_a:
        gates.append((1, np.array((np.arange(da), pi)), [2 * b + 1 for b in outs_b]))
    # restore the displaced partial rectangle
    if ins_a != outs_a:
        gates.append((0, move, list(ins_a - outs_a)))
    return gates


def _absorb_final_flip(specs: list) -> list:
    """Fold the trailing X on the flag qubit c into the last A-controlled gate.

    ``specs`` are ``_term_gates`` triples in product order.  The copy c is
    the low bit of a (B, c) value, so X_c flips it: it commutes through
    (B,c)-controlled gates by flipping the low bit of their active values,
    and multiplies into the palette of the first A-controlled gate
    encountered by flipping the low bit of every image in its tables.
    """
    out = list(specs)
    for i, (side, tables, active) in enumerate(out):
        if side == 0:
            out[i] = (0, tables ^ 1, active)
            return out
        out[i] = (1, tables, [v ^ 1 for v in active])
    raise AssertionError("no A-controlled gate to absorb the flag flip")


def _records(specs: list, da: int, db: int) -> list:
    """One ControlledGate per ``_term_gates`` triple, in the order given.

    Each side's palettes and 0/1 control indices are written as one stack,
    and its records are built as one ``controlled_stack``.
    A gate active on the all-zero control tuple takes its tables as
    [branch, identity] and the complement as its index: that is the
    record's canonical form, so it keeps the stack's palette as is, and the
    gates that share tables and orientation share one palette array.
    """
    out = [None] * len(specs)
    # per side: the control and target axes on (A, B, c), and the control dims
    sides = (((0,), (1, 2), (da,)), ((1, 2), (0,), (db, 2)))
    for side, (controls, targets, dims) in enumerate(sides):
        picks = [i for i, spec in enumerate(specs) if spec[0] == side]
        if not picks:
            continue
        actives = [specs[i][2] for i in picks]
        index = np.zeros((len(picks), math.prod(dims)), dtype=np.intp)
        which = np.repeat(np.arange(len(picks)), [len(a) for a in actives])
        index[which, list(itertools.chain.from_iterable(actives))] = 1
        first = index[:, 0].tolist()
        index ^= index[:, :1].copy()  # complement the gates active on the all-zero tuple
        slots: dict[tuple[int, int], int] = {}  # (tables array, orientation) -> palette
        tables, slot_of = [], []
        for i, f in zip(picks, first):
            key = (id(specs[i][1]), f)
            if key not in slots:
                slots[key] = len(tables)
                tables.append(specs[i][1][::-1] if f else specs[i][1])
            slot_of.append(slots[key])
        palettes = list(_frozen(perm_matrix(np.stack(tables))))
        index = _frozen(index.reshape((len(picks),) + dims))
        records = controlled_stack(controls, targets, [palettes[k] for k in slot_of], index)
        for i, g in zip(picks, records):
            out[i] = g
    return out


def emit_backup_protocol(u, expansion: PartialPermExpansion, da: int, db: int) -> BackupProtocolResult:
    """Implement a bipartite permutation from its partial-permutation expansion.

    Emits at most 3q two-term controlled-permutation gates on (A, B, c); the
    expanded circuit realizes each with two bipartite CNOTs through the flag
    qubits a and b, and the final flip of c is folded into the last A-side
    gate.  Exact reconstruction; the ebit estimate equals the two-term count.
    """
    b = _check_partial_permutation(u, da, db)
    if (b.sum(axis=0) != 1).any() or (b.sum(axis=1) != 1).any():
        raise PreconditionError("protocol input must be a full permutation")
    if max_abs(expansion.reconstruct() - b) != 0.0:
        raise PreconditionError("expansion does not reproduce the permutation")

    supports = [(_pp_support(a_mat), _pp_support(b_mat)) for a_mat, b_mat in expansion.terms]
    # (ins, outs, mapping): a term is in place when each factor maps its ins onto themselves
    use_backup = not all(sa[0] == sa[1] and sb[0] == sb[1] for sa, sb in supports)

    specs = [g for sa, sb in supports for g in _term_gates(sa, sb, da, db, use_backup)]
    specs.reverse()  # product order
    if use_backup:
        specs = _absorb_final_flip(specs)
    prod_gates = _records(specs, da, db)

    space = PartySpace(
        parties=(("A", da), ("B", db)),
        ancillas=(Ancilla("c", "B", 2, 0),),
    )
    expanded, n_two_term = _expand_two_term_gates(prod_gates, da, db)
    base = Circuit(space, tuple(prod_gates)).with_ebit_estimate(float(n_two_term))
    return BackupProtocolResult(base, expanded, n_two_term, 2 * n_two_term)


def _expand_two_term_gates(prod_gates, da: int, db: int) -> tuple[Circuit, int]:
    """Replace each two-term gate with the 2-CNOT flag construction.

    A gate is two-term when its palette has two entries; the flag is then
    raised exactly where its index is 1.  Expanded axis order: A=0, B=1, a=2,
    b=3, c=4; the base gates' (B, c) targets move to axes (1, 4).  Gates
    sharing a palette array share their apply gate.
    """
    space = PartySpace(
        parties=(("A", da), ("B", db)),
        ancillas=(Ancilla("a", "A", 2, 0), Ancilla("b", "B", 2, 0), Ancilla("c", "B", 2, 0)),
    )
    # per side of the control: controls, targets, flag axis and the CNOT copying the flag
    sides = {
        (0,): ((0,), (1, 4), 2, CnotGate(2, (0, 1), 3, (0, 1))),
        (1, 2): ((1, 4), (0,), 3, CnotGate(3, (0, 1), 2, (0, 1))),
    }
    # per side: the single-valued gates, the two-term gates, and the distinct
    # palettes of the two-term gates by id, which prod_gates keep alive
    singles: dict = {side: [] for side in sides}
    pairs: dict = {side: [] for side in sides}
    applies: dict = {side: {} for side in sides}
    for g in prod_gates:
        if len(g.palette) == 1:  # single-valued gate: applied directly (local to one side)
            singles[g.controls].append(g)
        else:
            pairs[g.controls].append(g)
            applies[g.controls].setdefault(id(g.palette), g.palette)
    built = {}  # id of a base gate -> what replaces it: one record, or the flag palindrome
    for side, (controls, targets, flag_axis, copy) in sides.items():
        gates = singles[side]
        records = controlled_stack(controls, targets, [g.palette for g in gates], [g.index for g in gates])
        built.update((id(g), [r]) for g, r in zip(gates, records))
        gates = pairs[side]
        apply = dict(zip(applies[side], _flag_apply(copy, targets, list(applies[side].values()))))
        indices = [g.index for g in gates]
        flags = controlled_stack(controls, (flag_axis,), [_FLAG_PALETTE] * len(gates), indices)
        built.update((id(g), _flag_palindrome(f, copy, apply[id(g.palette)])) for g, f in zip(gates, flags))
    out = [r for g in prod_gates for r in built[id(g)]]
    n_two_term = sum(len(g) for g in pairs.values())
    circuit = Circuit(space, tuple(out)).with_ebit_estimate(float(n_two_term))
    return circuit, n_two_term


# ---------------------------------------------------------------------------
# state-transfer protocol


@dataclass(frozen=True, eq=False)
class TransferResult:
    """Transfer-based implementation with 4*ceil(log2 min(dA,dB)) CNOTs.

    The smaller party is embedded into ``qubits`` two-level axes (the target
    unitary is padded by identity on the embedding complement and exposed as
    ``embedded`` with ``embedded_dims``); each qubit is moved to a fresh flag
    ancilla at the other party with two CNOTs, the padded unitary is applied
    as a single gate local to that party, and the transfer is inverted.
    """

    circuit: Circuit
    embedded: np.ndarray
    embedded_dims: tuple[int, ...]
    qubits: int
    transferred_side: str


def emit_transfer_protocol(u, da: int, db: int) -> TransferResult:
    """The transfer circuit of ``u`` (see ``TransferResult``); ``unitary_input`` checks ``u``."""
    u = unitary_input(u, (da, db))
    side = "A" if da <= db else "B"
    m = max(0, (min(da, db) - 1).bit_length())
    qubits = tuple((f"{side}{i}", 2) for i in range(m))
    # host: the axis of the party that keeps its level and gets the ancillas;
    # pb: the B dimension of the padded (A, B) pair
    if side == "A":
        parties, host, pb = qubits + (("B", db),), m, db
    else:
        parties, host, pb = (("A", da),) + qubits, 0, 2**m
    dims = tuple(d for _, d in parties)
    total = int(np.prod(dims))
    rows = (np.arange(da)[:, None] * pb + np.arange(db)).ravel()
    padded = np.eye(total, dtype=complex)
    padded[np.ix_(rows, rows)] = u

    ancillas = tuple(Ancilla(f"t{i}", parties[host][0], 2, 0) for i in range(m))
    space = PartySpace(parties=parties, ancillas=ancillas)

    # the padded matrix on axes (host, qubits...), the order of the local gate
    qubit_axes = [i for i in range(m + 1) if i != host]
    order = [host] + qubit_axes
    axes = order + [o + m + 1 for o in order]
    padded_local = padded.reshape(dims + dims).transpose(axes).reshape(total, total)
    local_axes = (host,) + tuple(range(m + 1, 2 * m + 1))

    app = []
    for i, qa in enumerate(qubit_axes):
        ta = m + 1 + i
        app.append(CnotGate(qa, (0, 1), ta, (0, 1)))
        app.append(CnotGate(ta, (0, 1), qa, (0, 1)))
    app.append(GenericGate(local_axes, padded_local, cut=1))
    for i in reversed(range(m)):
        qa = qubit_axes[i]
        ta = m + 1 + i
        app.append(CnotGate(ta, (0, 1), qa, (0, 1)))
        app.append(CnotGate(qa, (0, 1), ta, (0, 1)))
    circuit = Circuit(space, tuple(reversed(app)))
    return TransferResult(circuit, padded, dims, m, side)


# ---------------------------------------------------------------------------
# rank toolkit


@dataclass(frozen=True)
class BinaryMatrix:
    rows: int
    cols: int
    bits: tuple[int, ...]  # row-major 0/1

    def __post_init__(self):
        if len(self.bits) != self.rows * self.cols:
            raise ValueError("bit count does not match shape")
        if not set(self.bits) <= {0, 1}:
            raise ValueError("entries must be 0 or 1")

    def array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.int64).reshape(self.rows, self.cols)

    @classmethod
    def from_array(cls, a) -> "BinaryMatrix":
        ints = read_binary(a)
        return cls(ints.shape[0], ints.shape[1], tuple(ints.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class RankReport:
    """Rank value or certified interval, with a re-verifiable certificate.

    ``nodes`` is the number of branch-and-bound nodes the binary search
    visited (0 when the bounds met without a search).
    """

    kind: str
    lower: int
    upper: int
    certificate: tuple
    nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


class _SearchBudget(Exception):
    pass


# The binary-rank kernels work on row masks: row r of a 0/1 matrix is the int
# whose bit c is entry (r, c).


def _row_masks(a: np.ndarray) -> list[int]:
    """The rows of the 0/1 matrix ``a`` as ints, bit c for column c."""
    packed = np.packbits(a.astype(np.uint8), axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def _mask_rows(masks: list[int], n: int) -> np.ndarray:
    """The inverse of ``_row_masks``: one int64 0/1 row of length n per mask."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.astype(np.int64)


def _bits(m: int) -> tuple[int, ...]:
    """The positions of the set bits of ``m``, increasing."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _gf2_rank(masks) -> int:
    """Rank over GF(2) of the rows given as masks."""
    pivots: dict[int, int] = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                break
            m ^= pivots[top]
    return len(pivots)


def _xor_factor(t: np.ndarray):
    """Peel rank-one binary terms whose mod-2 sum is t; len == GF(2) rank.

    Each step takes the first 1-cell (i, j) of what is left, in row-major
    order, and peels column j times row i.  The peeling keeps each term's
    rows and columns as masks; term k is then the int64 pair ``(u[k], v[k])``
    of one u array and one v array.
    """
    t = np.asarray(t)
    rows, cols = t.shape
    work = _row_masks(t % 2)
    u_masks, v_masks = [], []
    for i in range(rows):
        v = work[i]
        if not v:
            continue
        low = v & -v
        hit = 0
        for r in range(i, rows):
            if work[r] & low:
                work[r] ^= v
                hit |= 1 << r
        u_masks.append(hit)
        v_masks.append(v)
    return list(zip(_mask_rows(u_masks, rows), _mask_rows(v_masks, cols)))


def _greedy_partition(masks):
    """Disjoint all-ones rectangles covering the rows; deterministic closure growth.

    The first row left is a rectangle's columns, and its rows are every row
    still holding all of them.
    """
    work = list(masks)
    rects = []
    for r0 in range(len(work)):
        cm = work[r0]
        if not cm:
            continue
        rows = tuple(r for r in range(r0, len(work)) if work[r] & cm == cm)
        for r in rows:
            work[r] &= ~cm
        rects.append((rows, _bits(cm)))
    return rects


def _distinct_row_partition(masks):
    """One rectangle per distinct nonzero row, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for r, m in enumerate(masks):
        if m:
            groups.setdefault(m, []).append(r)
    return [(tuple(rows), _bits(m)) for m, rows in groups.items()]


def _fooling_bound(masks) -> int:
    """Greedy set of pairwise rectangle-incompatible 1-cells (a lower bound).

    Cells are taken in row-major order.  Cell (r, c) clashes with a chosen
    (r2, c2) when (r2, c) and (r, c2) are both 1, so row r can take any of
    its cells outside the rows of the chosen cells whose column it holds;
    it takes the first, and a second cell of the same row always clashes.
    """
    chosen: list[tuple[int, int]] = []  # (row mask, column bit) per chosen cell
    for m in masks:
        blocked = 0
        for row, col in chosen:
            if m & col:
                blocked |= row
        free = m & ~blocked
        if free:
            chosen.append((m, free & -free))
    return len(chosen)


def _max_rect_area(masks) -> int:
    """Largest all-ones rectangle.

    The columns of a maximal rectangle are the intersection of its rows, so
    it is enough to try every intersection of nonzero rows with all the rows
    that hold it.
    """
    closed: set[int] = set()
    for m in set(masks) - {0}:
        closed |= {m & c for c in closed} | {m}
    closed.discard(0)
    return max(c.bit_count() * sum(m & c == c for m in masks) for c in closed)


def _rectangles(work, cols: int):
    """Every all-ones rectangle holding the first 1-cell, largest first.

    Yields (area, rows, column mask, cell mask), with bit r * cols + c of
    the cell mask for cell (r, c).  Equal areas come in decreasing column
    mask, then fewer rows first, then rows in lexicographic order.  The rows
    are drawn lazily, so a node cut off after its large rectangles never
    builds its small ones.
    """
    r0 = next(r for r, m in enumerate(work) if m)
    first = work[r0] & -work[r0]
    spare = work[r0] ^ first
    by_area: dict[int, list] = {}
    sub = spare
    while True:
        cm = sub | first
        others = [r for r in range(r0 + 1, len(work)) if work[r] & cm == cm]
        width = cm.bit_count()
        for k in range(len(others) + 1):
            by_area.setdefault(width * (k + 1), []).append((cm, others, k))
        if not sub:
            break
        sub = (sub - 1) & spare
    for area in sorted(by_area, reverse=True):
        for cm, others, k in by_area[area]:
            for rs in itertools.combinations(others, k):
                rows = (r0,) + rs
                yield area, rows, cm, sum(cm << (r * cols) for r in rows)


def _binary_partition_exact(masks, cols: int, lower: int, upper: int, node_budget: int):
    """Branch-and-bound minimum disjoint rectangle partition.

    ``lower`` and ``upper`` bound the partition number of the matrix with
    row masks ``masks``.  A node is a residual set of 1-cells; it branches on
    every rectangle that covers its first cell, largest first, and is cut
    off by the larger of ceil(cells / largest rectangle area) and the GF(2)
    rank of the residual (a partition into k rectangles sums to it mod 2).
    A node stops as soon as its best partition meets its bound, so the
    whole search stops once it meets ``lower``.  Returns
    ``((value, rects), nodes)``, with None in place of the result once more
    than ``node_budget`` nodes would be visited.
    """
    row_full = (1 << cols) - 1
    shifts = range(0, len(masks) * cols, cols)
    full = sum(m << s for m, s in zip(masks, shifts))
    amax = _max_rect_area(masks)
    memo: dict[int, tuple[int, tuple]] = {}  # residual -> (minimum, first rectangle)
    floor = {full: lower}  # residual -> proven lower bound
    nodes = 0

    def solve(mask: int, limit: int) -> int:
        """Minimum partition size of mask if below limit, else a lower bound >= limit."""
        nonlocal nodes
        if mask in memo:
            return memo[mask][0]
        nodes += 1
        if nodes > node_budget:
            raise _SearchBudget
        work = [(mask >> s) & row_full for s in shifts]
        cells = mask.bit_count()
        low = max(-(-cells // amax), _gf2_rank(work), floor.get(mask, 0))
        if low >= limit:
            return low
        best, choice = limit, None
        for area, rows, cm, rect in _rectangles(work, cols):
            if 1 - (-(cells - area) // amax) >= best:
                break  # every later rectangle is no larger
            rest = mask & ~rect
            sub = solve(rest, best - 1) if rest else 0
            if 1 + sub < best:
                best, choice = 1 + sub, (rows, cm, rect)
                if best == low:
                    break
        if choice is None:
            floor[mask] = limit
        else:
            memo[mask] = (best, choice)
        return best

    try:
        value = solve(full, upper + 1)
    except _SearchBudget:
        return None, node_budget
    rects = []
    mask = full
    while mask:
        rows, cm, rect = memo[mask][1]
        rects.append((rows, _bits(cm)))
        mask &= ~rect
    return (value, tuple(rects)), nodes


BINARY_EXACT_MAX_DIM = 12
BINARY_NODE_BUDGET = 300_000


def _binary_rank(a: np.ndarray, rank: int, node_budget: int) -> RankReport:
    """Binary rank of the 0/1 int array ``a`` whose real rank is ``rank``."""
    if not a.any():
        return RankReport("binary", 0, 0, ())
    masks = _row_masks(a)
    greedy = _greedy_partition(masks)
    by_rows = _distinct_row_partition(masks)
    by_cols = [(c, r) for (r, c) in _distinct_row_partition(_row_masks(a.T))]
    upper_cert = min((greedy, by_rows, by_cols), key=len)
    upper = len(upper_cert)
    lower = max(rank, _fooling_bound(masks))
    nodes = 0
    if lower < upper and min(a.shape) <= BINARY_EXACT_MAX_DIM:
        exact, nodes = _binary_partition_exact(masks, a.shape[1], lower, upper, node_budget)
        if exact is not None:
            value, rects = exact
            return RankReport("binary", value, value, rects, nodes)
    return RankReport("binary", lower, upper, tuple(upper_cert), nodes)


def _real_nonneg(arr) -> np.ndarray:
    """``arr`` as a float array; ValueError unless finite, real and nonnegative to EXACT_TOL."""
    a = np.asarray(arr)
    re = np.asarray(np.real(a), dtype=float)
    if not ((np.abs(np.imag(a)) <= EXACT_TOL).all() and ((re >= -EXACT_TOL) & (re < np.inf)).all()):
        raise ValueError("rank toolkit expects finite real nonnegative input")
    return re


def rank_toolkit(t, kind: str, node_budget: int = BINARY_NODE_BUDGET) -> RankReport:
    """Rank analysis of a binary (or nonnegative) matrix.

    kinds:
      rank    numerical rank (``matrix_rank``: relative threshold 1e-9);
              certificate: SVD terms
      xor     rank over GF(2), exact; certificate: peeled rank-1 binary terms
      binary  minimum disjoint all-ones rectangle partition; exact via
              branch-and-bound when min(rows, cols) <= 12 within the node
              budget, otherwise a certified interval
      nonneg  interval [rank, constructive upper]; exact only when it
              collapses.  On a 0/1 input the upper end and certificate are
              the binary rank's, from one search with ``rank`` as its
              lower bound.
    """
    arr = t.array() if isinstance(t, BinaryMatrix) else np.asarray(t)
    if kind == "rank":
        u, s, vh = _svd(_real_nonneg(arr), compute_uv=True)
        r = _rank(s)
        cert = tuple((s[i] * u[:, i], vh[i]) for i in range(r))
        return RankReport("rank", r, r, cert)
    if kind == "xor":
        terms = _xor_factor(read_binary(arr))
        return RankReport("xor", len(terms), len(terms), tuple(terms))
    if kind == "binary":
        b = read_binary(arr)
        return _binary_rank(b, matrix_rank(b), node_budget)
    if kind == "nonneg":
        a = _real_nonneg(arr)
        lower = matrix_rank(a)
        try:
            b = read_binary(a)
        except ValueError:
            upper = int(min(a.any(axis=1).sum(), a.any(axis=0).sum()))  # nonzero rows or columns
            return RankReport("nonneg", lower, upper, ())
        rep = _binary_rank(b, lower, node_budget)
        return RankReport("nonneg", lower, rep.upper, rep.certificate, rep.nodes)
    raise ValueError(f"unknown rank kind {kind!r}")


# ---------------------------------------------------------------------------
# the flagged pair-swap permutation family


def pair_swap_family_unitary(flags) -> np.ndarray:
    """Permutation built from diagonal 0/1 flag blocks.

    ``flags`` is an M x dB 0/1 array; row i controls an X on the A-basis pair
    (2i, 2i+1) applied exactly on the B-levels flagged by that row:

        U = sum_i [pair_i projector (x) (I - C_i) + pair_i swap (x) C_i].
    """
    f = read_binary(flags)
    m, db = f.shape
    n = 2 * m * db
    # the state (2i + s, b) goes to (2i + (s xor f[i, b]), b); the map is its own inverse
    a_out = 2 * np.arange(m)[:, None, None] + (np.arange(2)[:, None] ^ f[:, None, :])
    u = np.zeros((n, n), dtype=np.int64)
    u[(a_out * db + np.arange(db)).ravel(), np.arange(n)] = 1
    return u


def pair_swap_family_offdiagonal(flags) -> np.ndarray:
    """The off-diagonal (flagged) part of the family unitary; a partial permutation.

    Every row of the family unitary has exactly one nonzero entry, so this is
    the family unitary minus its diagonal.
    """
    u = pair_swap_family_unitary(flags)
    return u - np.diag(np.diag(u))


@dataclass(frozen=True, eq=False)
class PairSwapFamilyReport:
    flags: np.ndarray
    unitary: np.ndarray
    offdiagonal: np.ndarray
    sch_u: int
    sch_od: int
    ppr_upper: int
    rank_t: int
    xor_t: RankReport
    binary_t: RankReport

    def table(self) -> str:
        rows = [
            ("Sch(U)", self.sch_u),
            ("Sch(U_od)", self.sch_od),
            ("rank(T)", self.rank_t),
            ("xor rank(T)", self.xor_t.lower),
            ("binary rank(T)", f"{self.binary_t.lower}..{self.binary_t.upper}"
             if not self.binary_t.exact else self.binary_t.lower),
            ("ppr upper(U_od)", self.ppr_upper),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def analyze_pair_swap_family(flags) -> PairSwapFamilyReport:
    """Build the flagged pair-swap family and check its rank relations.

    Asserts rank(T) >= Sch(U_od), |Sch(U_od) - Sch(U)| <= 1, and that the
    binary rank of the flag matrix is at most the distinct-block expansion
    bound of the off-diagonal part.  Each term of that expansion is one
    distinct nonzero row (or column) of T and so one all-ones rectangle,
    disjoint from the others; the bound is the size of a rectangle partition
    of T and may exceed its binary rank.  When binary rank is not computed
    exactly, its lower end is checked against the bound.
    """
    f = read_binary(flags)
    m, db = f.shape
    da = 2 * m
    u = pair_swap_family_unitary(f)
    u_od = pair_swap_family_offdiagonal(f)
    sch_u = schmidt_rank(u.astype(complex), da, db)
    if u_od.any():
        sch_od = schmidt_rank(u_od.astype(complex), da, db)
        ppr_upper = pp_expansion(u_od, da, db).q
    else:
        sch_od = 0
        ppr_upper = 0
    rank_t = matrix_rank(f)
    xor_t = rank_toolkit(f, "xor")
    binary_t = rank_toolkit(f, "binary")
    if rank_t < sch_od:
        raise AssertionError("rank(T) >= Sch(U_od) violated")
    if abs(sch_od - sch_u) > 1:
        raise AssertionError("|Sch(U_od) - Sch(U)| <= 1 violated")
    if binary_t.lower > ppr_upper:
        raise AssertionError(
            f"binary rank {binary_t.lower} exceeds expansion bound {ppr_upper}"
        )
    return PairSwapFamilyReport(
        f, u, u_od, sch_u, sch_od, ppr_upper, rank_t, xor_t, binary_t
    )


# ---------------------------------------------------------------------------
# XOR-factored protocol for the pair-swap family


@dataclass(frozen=True, eq=False)
class XorProtocolResult:
    """One controlled gate per GF(2) factor of the flag matrix.

    ``base`` has xor_rank two-term controlled-permutation gates on (A, B);
    ``expanded`` realizes each with 2 bipartite CNOTs (2 * xor_rank total).
    """

    base: Circuit
    expanded: Circuit
    xor_rank: int
    cnot_count: int
    terms: tuple


def emit_xor_protocol(flags) -> XorProtocolResult:
    """Implement the pair-swap family unitary from a GF(2) factorization.

    Each factor u (x) v of the flag matrix becomes one controlled gate: the
    B side selects the columns flagged by v, the A side applies the product
    of pair swaps flagged by u.  Overlapping supports cancel mod 2, which is
    exactly how the family unitary composes.
    """
    f = read_binary(flags)
    m, db = f.shape
    da = 2 * m
    terms = _xor_factor(f)

    def pair_swaps(u_vec) -> np.ndarray:  # swaps the pairs (2i, 2i + 1) that u_vec flags
        return perm_matrix((np.arange(da).reshape(m, 2) ^ u_vec[:, None]).ravel())

    palettes = [_with_identity(pair_swaps(u_vec)) for u_vec, _ in terms]
    base_gates = [ControlledGate((1,), (0,), p, v_vec) for p, (_, v_vec) in zip(palettes, terms)]
    space = PartySpace(parties=(("A", da), ("B", db)))
    base = Circuit(space, tuple(base_gates))

    # expand with one flag qubit per side: b marks the selected columns
    xspace = PartySpace(
        parties=(("A", da), ("B", db)),
        ancillas=(Ancilla("a", "A", 2, 0), Ancilla("b", "B", 2, 0)),
    )
    xgates = []
    copy = CnotGate(3, (0, 1), 2, (0, 1))
    for apply, (_, v_vec) in zip(_flag_apply(copy, (0,), palettes), terms):
        flag = ControlledGate((1,), (3,), _FLAG_PALETTE, v_vec)
        xgates.extend(_flag_palindrome(flag, copy, apply))
    expanded = Circuit(xspace, tuple(xgates)).with_ebit_estimate(float(len(terms)))
    return XorProtocolResult(base, expanded, len(terms), 2 * len(terms), tuple(terms))
