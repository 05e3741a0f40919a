"""Circuit intermediate representation, dense simulator, verifier, and classifier.

A circuit lives on a :class:`PartySpace`: an ordered list of parties followed
by an ordered list of ancillas.  Axis indices count parties first, then
ancillas, and the full Hilbert space is the row-major tensor product of the
axis dimensions.

Gate lists are stored in *product order*: ``gates[0]`` is the leftmost matrix
factor, so it is applied **last**.  ``apply_circuit`` returns
``M(gates[0]) @ M(gates[1]) @ ... @ M(gates[-1])``.  This matches the usual
product notation U = U_1 U_2 ... U_k and is the classic place for reversal
bugs; the JSON format documents it as well.

A controlled gate stores each distinct branch once: ``palette`` holds the
distinct unitaries on the target axes, and ``index``, an integer array over
the control dimensions, names the palette entry of every control tuple.
Every gate kind is a computational-basis controlled gate, so each record is
lowered to one form, ``(controls, targets, palette, index)``:
``palette[index[i]]`` is the branch for the i-th control tuple in row-major
order.  A controlled gate record comes singly, from ``ControlledGate``, or
as a checked stack from ``controlled_stack``, which checks n gates on one
pair of axis lists in one pass with the constructor's own predicates; the
same invariants hold either way.  Lowering is also where a gate's structure
is checked against the space.  One kernel applies a lowered gate to a block of state columns by a
batched matmul over the (controls, targets, rest) regrouping of the state;
dense simulation and gate embedding use it.  Classification reads the
lowered palette and index without applying them.

Exact permutation tables (``circuit_permutation``) are paid for per circuit
rather than per gate.  Gates are lowered in batches of ``DECODE_CHUNK``
palette values, and the palettes of one branch size in a batch are tested
and read as one stack (``matcore.read_permutations``), so the decode's
working memory stays near 300 KB however long the circuit is.  Per gate, one
gather spreads its table over the states, through an index grid built once
per pair of control and target axes, and one more composes it with the
result so far.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .matcore import (
    DEFAULT_EPS,
    RECON_TOL,
    as_matrix,
    is_unitary,
    max_abs,
    perm_matrix,
    read_permutations,
    require_dense_dim,
)
from .schmidt import matrix_rank, schmidt_rank


class CircuitError(ValueError):
    """A gate payload is inconsistent with the circuit's space."""


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Ancilla:
    name: str
    host: str
    dim: int = 2
    init: int = 0


@dataclass(frozen=True)
class PartySpace:
    """Ordered parties plus ancillas, each ancilla hosted at a party."""

    parties: tuple[tuple[str, int], ...]
    ancillas: tuple[Ancilla, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.parties] + [a.name for a in self.ancillas]
        if len(set(names)) != len(names):
            raise ValueError("party/ancilla names must be unique")
        party_names = {n for n, _ in self.parties}
        for _, d in self.parties:
            if d < 1:
                raise ValueError("party dimensions must be >= 1")
        for a in self.ancillas:
            if a.host not in party_names:
                raise ValueError(f"ancilla {a.name!r} hosted at unknown party {a.host!r}")
            if not 0 <= a.init < a.dim:
                raise ValueError(f"ancilla {a.name!r} initial index out of range")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.parties) + tuple(a.dim for a in self.ancillas)

    @property
    def party_dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.parties)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis_host(self, axis: int) -> str:
        """The party at ``axis``, or the host of the ancilla there; CircuitError outside the space."""
        n = len(self.parties)
        if not 0 <= axis < n + len(self.ancillas):
            raise CircuitError(f"gate references axis {axis} outside the space")
        if axis < n:
            return self.parties[axis][0]
        return self.ancillas[axis - n].host

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.parties):
            if n == name:
                return i
        for i, a in enumerate(self.ancillas):
            if a.name == name:
                return len(self.parties) + i
        raise KeyError(name)


def bipartite_space(da: int, db: int) -> PartySpace:
    return PartySpace(parties=(("A", da), ("B", db)))


def multiparty_space(dims) -> PartySpace:
    return PartySpace(parties=tuple((f"P{i}", int(d)) for i, d in enumerate(dims)))


# ---------------------------------------------------------------------------
# gate records
#
# A controlled gate record is checked by the predicates below and kept in
# canonical form.  ``ControlledGate(...)`` runs them on one record;
# ``controlled_stack`` runs the same predicates once on a stack of records
# that share their axes, and names the first record of the stack that one
# of them refuses.


def _check_palette_shape(shape: tuple) -> None:
    """Refuse a palette shape other than (k, d, d) with d >= 1."""
    if len(shape) != 3 or shape[1] != shape[2] or not shape[1]:
        raise CircuitError(f"palette has shape {shape}, expected (k, d, d)")


def _check_finite(palette: np.ndarray) -> None:
    """Refuse a palette, or a stack of palettes, with an entry that is not finite.

    A finite sum settles it, as no inf or nan entry leaves the sum finite;
    a sum that overflows is settled entry by entry.
    """
    if not math.isfinite(abs(palette.sum())) and not np.isfinite(palette).all():
        raise CircuitError("branch entries must be finite")


def _check_index_shape(index: np.ndarray, controls: tuple) -> None:
    """Refuse a control index without one axis per control axis, or with no entry."""
    if index.ndim != len(controls) or not index.size:
        raise CircuitError(f"control index of shape {index.shape} for controls {controls}")


def _check_index_range(lo, hi, k: int) -> None:
    """Refuse a control index whose least entry ``lo`` or greatest ``hi`` names no palette entry."""
    if lo < 0 or hi >= k:
        raise CircuitError("control index names no palette entry")


def _canonical_palette(palette: np.ndarray, index: np.ndarray, flat: list):
    """Merge equal palette entries, drop unused ones, order the rest by first use.

    ``flat`` is ``index`` as a row-major list.  One or two entries, the
    palettes of most records, are settled by a few comparisons; more take
    the grouping of ``_stacked_same_entries``, as a stack of one palette,
    and one pass over the index.
    """
    # equal means equal bytes: np.array_equal would also merge -0.0 with 0.0,
    # and the merged entry would change the bytes of the circuit file
    if len(palette) == 1:
        return palette, index
    if len(palette) == 2:
        first = flat[0]
        if 1 - first not in flat or _equal_bytes(palette[0], palette[1]):
            return palette[first : first + 1], np.zeros_like(index)
        return (palette, index) if first == 0 else (palette[[1, 0]], 1 - index)
    same = _stacked_same_entries(palette[None])
    same = list(range(len(palette))) if same is None else same[0].tolist()
    rank: dict[int, int] = {}  # kept entry -> its new position, in first-use order
    for j in flat:
        rank.setdefault(same[j], len(rank))
    if list(rank) == list(range(len(palette))):
        return palette, index
    remap = np.array([rank.get(s, 0) for s in same], dtype=np.intp)
    return palette[list(rank)], remap[index.reshape(-1)].reshape(index.shape)


@functools.lru_cache(maxsize=64)
def _word_weights(n: int) -> np.ndarray:
    """n fixed odd 64-bit weights: the key of an entry is its words' weighted sum."""
    weights = np.random.default_rng(n).bit_generator.random_raw(n) | np.uint64(1)
    weights.flags.writeable = False  # one array serves every caller
    return weights


def _stacked_same_entries(palettes: np.ndarray):
    """For each entry of every palette of a (u, k, d, d) stack, the first entry of its palette with the same bytes.

    A (u, k) array, or None when no palette holds two entries with one
    key, so each entry is its own first.  An entry's key is the weighted
    sum of its 64-bit words, modulo 2**64, so entries with equal bytes have
    equal keys.  One stable sort per palette groups its entries by key, and
    one comparison of every entry with its group's first confirms the
    groups; a palette where two different entries share a key is grouped
    by its bytes.
    """
    u, k = palettes.shape[:2]
    words = np.ascontiguousarray(palettes).reshape(u, k, -1).view(np.uint64)
    keys = words.dot(_word_weights(words.shape[2]))
    if u == 1 and len(set(keys[0].tolist())) == k:  # a set settles one palette sooner than a sort
        return None
    ordered = np.sort(keys, axis=1)
    starts = ordered[:, 1:] != ordered[:, :-1]
    if starts.all():
        return None
    order = np.argsort(keys, axis=1, kind="stable")
    # in sorted order, each entry's group starts at the last start at or before it
    group = np.zeros((u, k), dtype=np.intp)
    np.maximum.accumulate(np.where(starts, np.arange(1, k), 0), axis=1, out=group[:, 1:])
    rows = np.arange(u)[:, None]
    same = np.empty_like(order)
    same[rows, order] = order[rows, group]
    for i in np.flatnonzero((words != words[rows, same]).any(axis=(1, 2))).tolist():
        seen: dict = {}
        same[i] = [seen.setdefault(w.tobytes(), j) for j, w in enumerate(words[i])]
    return same


def _stack_canonical(palettes: np.ndarray, which: np.ndarray, index: np.ndarray) -> list:
    """The canonical ``(palette, index)`` of each gate of a stack; None where it is the gate's own.

    Gate j has palette ``palettes[which[j]]`` from a (u, k, d, d) stack and
    index ``index[j]``.  Its pair is canonical when the first entries with
    its entries' bytes (``_stacked_same_entries``), read in index order,
    are 0 at first and each one at most one past the largest before it, up
    to k - 1: then no entry is merged or unused, and they come in first-use
    order.  The other gates are put in canonical form together, and their
    palettes and indices are read-only slices of one new stack each.
    """
    n, k = len(index), palettes.shape[1]
    same = _stacked_same_entries(palettes)
    used = index.reshape(n, -1) if same is None else same[which[:, None], index.reshape(n, -1)]
    top = np.maximum.accumulate(used, axis=1)
    canonical = (used[:, 0] == 0) & (top[:, -1] == k - 1) & (used[:, 1:] <= top[:, :-1] + 1).all(axis=1)
    forms: list = [None] * n
    rows = np.flatnonzero(~canonical)
    if not rows.size:
        return forms
    # entry e of the r-th such gate is key r * k + e; keys in first-use order
    keys = (np.arange(len(rows))[:, None] * k + used[rows]).ravel()
    distinct, first = np.unique(keys, return_index=True)
    kept = distinct[np.argsort(first)]
    gate = kept // k
    sizes = np.bincount(gate, minlength=len(rows))
    ends = np.cumsum(sizes)
    rank = np.zeros(len(rows) * k, dtype=np.intp)
    rank[kept] = np.arange(len(kept)) - (ends - sizes)[gate]
    new_index = _read_only(rank[keys].reshape((len(rows),) + index.shape[1:]))
    new_palettes = _read_only(palettes[which[rows][gate], kept % k])
    for r, (i, end, size) in enumerate(zip(rows.tolist(), ends.tolist(), sizes.tolist())):
        forms[i] = new_palettes[end - size : end], new_index[r]
    return forms


def _equal_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two matrices of one shape have equal bytes.

    Unequal diagonals settle it without copying the matrices, and they tell
    the identity from every other permutation matrix, so they settle the
    [identity, permutation] palettes of the integer path.
    """
    return a.diagonal().tobytes() == b.diagonal().tobytes() and a.tobytes() == b.tobytes()


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only already, else a read-only view of it."""
    if not a.flags.writeable:
        return a
    view = a.view()
    view.flags.writeable = False
    return view


def _axes(axes, what: str) -> tuple[int, ...]:
    """One axis or several, as a strictly increasing tuple of ints."""
    if isinstance(axes, (int, np.integer)):
        axes = (axes,)
    if type(axes) is tuple:
        # the entries' types are part of the key: 1.0 == 1, but it is no axis
        return _tuple_axes(axes, tuple(map(type, axes)), what)
    return _checked_axes(axes, what)


@functools.lru_cache(maxsize=256)
def _tuple_axes(axes: tuple, types: tuple, what: str) -> tuple[int, ...]:
    """``_checked_axes`` memoised: the records of one circuit share a few axis tuples."""
    return _checked_axes(axes, what)


def _control_target_axes(controls, targets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_axes`` of a controlled gate's two axis lists, checked not to overlap."""
    if type(controls) is tuple and type(targets) is tuple:
        return _tuple_control_target_axes(controls, targets, tuple(map(type, controls + targets)))
    return _checked_control_target_axes(controls, targets)


@functools.lru_cache(maxsize=256)
def _tuple_control_target_axes(controls: tuple, targets: tuple, types: tuple):
    """``_checked_control_target_axes`` memoised, keyed by the entries' types as ``_tuple_axes`` is."""
    return _checked_control_target_axes(controls, targets)


def _checked_control_target_axes(controls, targets):
    controls, targets = _axes(controls, "control"), _axes(targets, "target")
    if set(controls) & set(targets):
        raise CircuitError("control and target axes overlap")
    return controls, targets


def _checked_axes(axes, what: str) -> tuple[int, ...]:
    axes = tuple(map(operator.index, axes))
    if list(axes) != sorted(set(axes)):
        raise CircuitError(f"{what} axes {axes} are not strictly increasing")
    return axes


def _axis_pairs(what: str, axis_a, pair_a, axis_b, pair_b):
    """Two distinct axes, each with a pair of two distinct levels, as ints."""
    axis_a, axis_b = operator.index(axis_a), operator.index(axis_b)
    if axis_a == axis_b:
        raise CircuitError(f"{what} must be on two distinct axes, got axis {axis_a} twice")
    pair_a, pair_b = tuple(map(operator.index, pair_a)), tuple(map(operator.index, pair_b))
    for pair in (pair_a, pair_b):
        if len(pair) != 2 or pair[0] == pair[1]:
            raise CircuitError(f"level pair {pair} is not two distinct levels")
    return axis_a, pair_a, axis_b, pair_b


def _payload(m, side: int | None = None) -> np.ndarray:
    """``m`` as a finite, nonempty square complex matrix, ``side`` x ``side`` when given."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size or side not in (None, len(m)):
        want = "a square matrix" if side is None else (side, side)
        raise CircuitError(f"gate payload has shape {m.shape}, expected {want}")
    if not np.isfinite(m).all():
        raise CircuitError("gate payload entries must be finite")
    return m


def _set(record, *values) -> None:
    """Set the fields of a frozen record, in field order, past its frozen ``__setattr__``."""
    vars(record).update(zip(record.__dataclass_fields__, values))


@dataclass(frozen=True, eq=False)
class ControlledGate:
    """Computational-basis controlled gate: a palette of branches and an index.

    ``palette`` is a ``(k, d, d)`` stack of the distinct unitaries applied on
    the target axes (identity on all remaining axes).  ``index`` has one axis
    per control axis, and its entry at a tuple of control-axis basis indices
    names the palette entry applied for it.  Control and target axes are
    strictly increasing; branch matrices are indexed row-major over the target
    axes in that order.

    Construction coerces and checks the palette once and keeps it canonical:
    entries are pairwise distinct (entries with equal bytes are merged), every
    entry is used, and entries come in order of first use in row-major control
    order, so ``palette[0]`` is the branch of the all-zero control tuple.
    Both arrays are read-only.  Records come singly, from this constructor,
    or as a checked stack from ``controlled_stack``; the same predicates
    check them and the same invariants hold either way.
    """

    controls: tuple[int, ...]
    targets: tuple[int, ...]
    palette: np.ndarray
    index: np.ndarray

    kind = "ControlledComputational"

    def __post_init__(self):
        controls, targets = _control_target_axes(self.controls, self.targets)
        palette = np.asarray(self.palette, dtype=complex)
        index = np.asarray(self.index, dtype=np.intp)
        _check_palette_shape(palette.shape)
        _check_finite(palette)
        _check_index_shape(index, controls)
        flat = index.reshape(-1).tolist()  # Python min and max beat numpy's on a few entries
        _check_index_range(min(flat), max(flat), len(palette))
        palette, index = _canonical_palette(palette, index, flat)
        _set(self, controls, targets, _read_only(palette), _read_only(index))

    def branch(self, ctrl: tuple[int, ...]) -> np.ndarray:
        ctrl = tuple(ctrl)
        shape = self.index.shape
        if len(ctrl) != len(shape) or not all(0 <= v < n for v, n in zip(ctrl, shape)):
            raise KeyError(ctrl)
        return self.palette[self.index[ctrl]]

    @property
    def branches(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Row-major ``(control-tuple, branch)`` pairs, one per control tuple."""
        return tuple(zip(np.ndindex(self.index.shape), (self.palette[j] for j in self.index.flat)))


def controlled(controls, targets, branches: dict) -> ControlledGate:
    """Build a ControlledGate from a {control-tuple: matrix} mapping.

    The keys must be every control tuple below the largest value the
    mapping names on each control axis; whether that covers the control axes
    of a space is checked where the gate is lowered on one.
    """
    controls = tuple(controls)
    keys = [tuple(operator.index(v) for v in k) for k in branches]
    for key in keys:
        if len(key) != len(controls) or min(key, default=0) < 0:
            raise CircuitError(f"control tuple {key} does not fit {len(controls)} control axes")
    shape = tuple(max(col) + 1 for col in zip(*keys))
    if len(keys) != math.prod(shape):
        raise CircuitError("controlled gate does not cover every control tuple exactly once")
    mats = [_payload(m) for m in branches.values()]
    if len({m.shape for m in mats}) > 1:
        raise CircuitError(f"branches have different shapes {sorted({m.shape for m in mats})}")
    index = np.empty(shape, dtype=np.intp)
    for j, key in enumerate(keys):
        index[key] = j
    return ControlledGate(controls, targets, np.stack(mats), index)


# a stack of fewer gates is built one record at a time: its one-pass checks
# and grouping cost a fixed 30-40 us, about four records' worth (2 cores,
# one OpenBLAS thread), so they gain from about ten gates on
STACK_MIN_GATES = 10


def controlled_stack(controls, targets, palettes, indices) -> list[ControlledGate]:
    """n ControlledGate records on one pair of axis lists, checked as one stack.

    ``palettes`` holds the n gates' palettes: an (n, k, d, d) array, or a
    sequence of n (k, d, d) arrays of one shape, in which one array may
    serve several gates.  ``indices`` holds their control indices: an array
    with one leading axis over the gates, or a sequence of arrays of one
    shape.  Each predicate of ``ControlledGate`` runs once on the whole
    stack; when one refuses it, the CircuitError names the first gate it
    refuses.  The canonical forms come from one hashed grouping of all
    entries, confirmed against their bytes (``_stack_canonical``).  A gate
    whose pair is canonical holds the given arrays, or read-only views of
    them, and gates given one palette array share one palette.  Fewer than
    ``STACK_MIN_GATES`` gates are built by ``ControlledGate`` one at a
    time, and a refused one is named the same way.
    """
    controls, targets = _control_target_axes(controls, targets)
    if isinstance(palettes, np.ndarray):
        # one read-only view of the stack, whose items are read-only views
        held = _read_only(np.asarray(palettes, dtype=complex))
        which = list(range(len(held)))
        _at(0, _check_palette_shape, held.shape[1:])
    else:
        slots: dict[int, int] = {}  # id of a given array -> its place in the stack
        held, which = [], []
        for j, p in enumerate(palettes):
            if id(p) not in slots:
                slots[id(p)] = len(held)
                held.append(_read_only(np.asarray(p, dtype=complex)))
                _at(j, _check_palette_shape, held[-1].shape)
                if held[-1].shape != held[0].shape:
                    shapes = f"{held[-1].shape}, the stack's {held[0].shape}"
                    raise CircuitError(f"stack gate {j}: palette has shape {shapes}")
            which.append(slots[id(p)])
    n = len(which)
    index = _gate_indices(indices)
    if len(index) != n:
        raise CircuitError(f"{n} palettes for {len(index)} control indices")
    if n < STACK_MIN_GATES:
        return [_at(j, ControlledGate, controls, targets, held[which[j]], index[j]) for j in range(n)]
    stack = held if isinstance(held, np.ndarray) else np.stack(held)
    index = _read_only(np.asarray(index, dtype=np.intp))
    try:
        _check_finite(stack)
    except CircuitError:
        _refuse_first(n, lambda j: _check_finite(held[which[j]]))
    _at(0, _check_index_shape, index[0], controls)
    k = stack.shape[1]
    try:
        _check_index_range(index.min(), index.max(), k)
    except CircuitError:
        _refuse_first(n, lambda j: _check_index_range(index[j].min(), index[j].max(), k))
    axes = {"controls": controls, "targets": targets}
    records = []
    for j, form in enumerate(_stack_canonical(stack, np.array(which), index)):
        palette, idx = form or (held[which[j]], index[j])
        g = object.__new__(ControlledGate)
        vars(g).update(axes, palette=palette, index=idx)
        records.append(g)
    return records


def _gate_indices(indices):
    """The gates' control indices: an integer array over them, or a list of arrays of one shape."""
    if isinstance(indices, np.ndarray):
        return np.asarray(indices, dtype=np.intp)
    arrays = [np.asarray(i, dtype=np.intp) for i in indices]
    for j, a in enumerate(arrays):
        if a.shape != arrays[0].shape:
            shapes = f"{a.shape}, the stack's {arrays[0].shape}"
            raise CircuitError(f"stack gate {j}: control index has shape {shapes}")
    return arrays


def _at(j: int, check, *args):
    """``check(*args)`` for gate j of a stack, naming j when it refuses."""
    try:
        return check(*args)
    except CircuitError as exc:
        raise CircuitError(f"stack gate {j}: {exc}") from None


def _refuse_first(n: int, check) -> None:
    """Raise for the first gate j of n for which ``check(j)`` raises, naming j."""
    for j in range(n):
        _at(j, check, j)
    raise AssertionError("a stack check refused the stack but none of its gates")


@dataclass(frozen=True, eq=False)
class LocalGate:
    """Unitary on one or more axes that share a single host party."""

    axes: tuple[int, ...]
    matrix: np.ndarray

    kind = "Local"

    def __post_init__(self):
        _set(self, _axes(self.axes, "local gate"), _payload(self.matrix))


@dataclass(frozen=True, eq=False)
class TwoLevelGate:
    """Standard gate: identity outside one 2x2 subspace of a bipartite cut.

    The nontrivial 4x4 part acts on span{pair_a} x span{pair_b}, ordered
    (a1 b1), (a1 b2), (a2 b1), (a2 b2), and must have Schmidt rank <= 2.
    """

    axis_a: int
    pair_a: tuple[int, int]
    axis_b: int
    pair_b: tuple[int, int]
    matrix: np.ndarray

    kind = "TwoLevelStandard"

    def __post_init__(self):
        axes = _axis_pairs("a two-level gate", self.axis_a, self.pair_a, self.axis_b, self.pair_b)
        _set(self, *axes, _payload(self.matrix, 4))


@dataclass(frozen=True, eq=False)
class CnotGate:
    """CNOT on two qubit subspaces: fires on control_pair[1], swaps target_pair."""

    control_axis: int
    control_pair: tuple[int, int]
    target_axis: int
    target_pair: tuple[int, int]

    kind = "CNOT"

    def __post_init__(self):
        _set(self, *_axis_pairs("a CNOT", self.control_axis, self.control_pair,
                                self.target_axis, self.target_pair))


@dataclass(frozen=True, eq=False)
class GenericGate:
    """Explicit unitary on a set of axes with a declared bipartition tag.

    ``cut`` is the number of leading axes (in ``axes`` order) belonging to the
    left block of the declared bipartition.  It is a declared tag carried into
    the circuit file; nothing in the package reads it.
    """

    axes: tuple[int, ...]
    matrix: np.ndarray
    cut: int = 1

    kind = "GenericBipartite"

    def __post_init__(self):
        axes, cut = _axes(self.axes, "generic gate"), operator.index(self.cut)
        if not 0 <= cut <= len(axes):
            raise CircuitError(f"generic gate cut {cut} is outside 0..{len(axes)}")
        _set(self, axes, _payload(self.matrix), cut)


Gate = ControlledGate | LocalGate | TwoLevelGate | CnotGate | GenericGate

# the order of ``gate_counts`` in metrics and circuit files
GATE_KINDS = tuple(cls.kind for cls in Gate.__args__)


# ---------------------------------------------------------------------------
# circuits and metrics


@dataclass(frozen=True)
class Metrics:
    gate_counts: tuple[tuple[str, int], ...]
    nonlocal_cnot: int
    ebit_estimate: float | None = None

    def counts(self) -> dict[str, int]:
        return dict(self.gate_counts)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gate list over a party space, in product order (gates[0] applied last)."""

    space: PartySpace
    gates: tuple[Gate, ...]
    metrics: Metrics = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.metrics is None:
            object.__setattr__(self, "metrics", compute_metrics(self.space, self.gates))

    def with_ebit_estimate(self, ebits: float) -> "Circuit":
        return Circuit(self.space, self.gates, replace(self.metrics, ebit_estimate=ebits))


def compute_metrics(space: PartySpace, gates, ebit_estimate: float | None = None) -> Metrics:
    counts = {k: 0 for k in GATE_KINDS}
    nonlocal_cnot = 0
    crosses: dict[tuple[int, int], bool] = {}  # per (control, target) axis pair of a CNOT
    for g in gates:
        counts[g.kind] += 1
        if isinstance(g, CnotGate):
            pair = (g.control_axis, g.target_axis)
            if pair not in crosses:
                crosses[pair] = space.axis_host(pair[0]) != space.axis_host(pair[1])
            nonlocal_cnot += crosses[pair]
    items = tuple((k, v) for k, v in counts.items() if v)
    return Metrics(items, nonlocal_cnot, ebit_estimate)


def recompute_metrics(c: Circuit) -> Metrics:
    """Recompute the derivable metric fields, preserving the declared ebit estimate."""
    return compute_metrics(c.space, c.gates, c.metrics.ebit_estimate)


# ---------------------------------------------------------------------------
# lowered form: every gate as a uniformly controlled gate


def _dim(dims, ax: int) -> int:
    if not 0 <= ax < len(dims):
        raise CircuitError(f"gate references axis {ax} outside the space")
    return dims[ax]


def _checked_pair(d: int, pair) -> tuple[int, int]:
    if not all(0 <= v < d for v in pair):
        raise CircuitError(f"level pair {pair} has a level outside 0..{d - 1}")
    return pair


def _lower(dims, g: Gate):
    """Lower a gate record to ``(controls, targets, palette, index)`` on ``dims``.

    Every kind is a uniformly controlled gate: ``palette[index[i]]`` is the
    branch on the target axes (row-major over them, in the order given)
    applied when the control axes hold the i-th control tuple in row-major
    order.  Local, generic and two-level gates have no controls; a CNOT has
    one, and its palette is ``[identity, swap]`` with the swap of
    ``target_pair`` at ``control_pair[1]``.  This is the one place that reads
    the kind of a gate for simulation.  Construction has checked each
    record on its own; what is checked here needs the space's dims: axes in
    range, the control index's shape, level pairs and the branch shape.
    """
    if isinstance(g, ControlledGate):
        controls, targets = g.controls, g.targets
        ctrl_dims = tuple(_dim(dims, ax) for ax in controls)
        if g.index.shape != ctrl_dims:
            raise CircuitError(
                f"control index has shape {g.index.shape} on control dims {ctrl_dims}: "
                "the gate does not cover every control tuple exactly once"
            )
        palette, index = g.palette, g.index.reshape(-1)
    elif isinstance(g, (LocalGate, GenericGate)):
        controls, targets = (), g.axes
        palette, index = g.matrix[None], np.zeros(1, dtype=np.intp)
    elif isinstance(g, TwoLevelGate):
        controls, targets = (), (g.axis_a, g.axis_b)
        da, db = _dim(dims, g.axis_a), _dim(dims, g.axis_b)
        pa, pb = _checked_pair(da, g.pair_a), _checked_pair(db, g.pair_b)
        quad = [a * db + b for a in pa for b in pb]
        branch = np.eye(da * db, dtype=complex)
        branch[np.ix_(quad, quad)] = g.matrix
        palette, index = branch[None], np.zeros(1, dtype=np.intp)
    elif isinstance(g, CnotGate):
        controls, targets = (g.control_axis,), (g.target_axis,)
        dc, dt = _dim(dims, g.control_axis), _dim(dims, g.target_axis)
        fire = _checked_pair(dc, g.control_pair)[1]
        k0, k1 = _checked_pair(dt, g.target_pair)
        swap = np.arange(dt)
        swap[[k0, k1]] = k1, k0
        palette = np.stack([np.eye(dt, dtype=complex), perm_matrix(swap)])
        index = (np.arange(dc) == fire).astype(np.intp)
    else:
        raise CircuitError(f"unknown gate record {type(g).__name__}")
    dt = math.prod(_dim(dims, ax) for ax in targets)
    if palette.shape[1:] != (dt, dt):
        raise CircuitError(f"branches have shape {palette.shape[1:]}, expected {(dt, dt)}")
    return controls, targets, palette, index


# ---------------------------------------------------------------------------
# the kernel: dense simulation and exact permutation tables


def _grouped(dims, controls, targets, a: np.ndarray, axes=None):
    """View ``a`` as (controls, targets, rest).

    ``a`` has one axis per party axis, in the order ``axes`` (increasing
    when None), then any further axes, which go last in ``rest``.  Returns
    the regrouped ``(n_controls, d_targets, -1)`` array and its party axis
    order: the controls, the targets, then the other axes in increasing
    order.
    """
    n = len(dims)
    rest = [ax for ax in range(n) if ax not in controls and ax not in targets]
    order = [*controls, *targets, *rest]
    at = order if axes is None else [axes.index(ax) for ax in order]
    nc = math.prod(dims[ax] for ax in controls)
    dt = math.prod(dims[ax] for ax in targets)
    return a.transpose(at + list(range(n, a.ndim))).reshape(nc, dt, -1), order


def _apply(dims, lowered, state: np.ndarray, axes: list) -> tuple[np.ndarray, list]:
    """Apply a lowered gate to every column of ``state``, left in the gate's axis order.

    ``state`` has one axis per party axis, in the order ``axes``, then one
    axis over the columns.  Returns the result and its party axis order
    (``_grouped``'s).  The one copy is the regrouping of ``state`` into that
    order; the product comes out in it, so the next gate's regrouping is
    the only move.
    """
    controls, targets, palette, index = lowered
    x, order = _grouped(dims, controls, targets, state, axes)
    x = np.matmul(palette[index], x)
    return x.reshape([dims[ax] for ax in order] + [-1]), order


def _in_order(dims, state: np.ndarray, axes: list) -> np.ndarray:
    """``state`` (party axes in the order ``axes``, then columns) as a (prod(dims), -1) matrix."""
    return state.transpose([axes.index(ax) for ax in range(len(dims))] + [len(dims)]).reshape(
        math.prod(dims), -1
    )


def gate_matrix(space: PartySpace, g: Gate) -> np.ndarray:
    """Embed a gate record into the full space as a dense matrix."""
    require_dense_dim(space.total_dim)
    dims, axes = space.dims, list(range(len(space.dims)))
    eye = np.eye(space.total_dim, dtype=complex).reshape(*dims, -1)
    return _in_order(dims, *_apply(dims, _lower(dims, g), eye, axes))


def apply_circuit(c: Circuit) -> np.ndarray:
    """Ordered matrix product of all gates embedded into the full space.

    The gates act on the identity from the last to the first, one kernel
    call each, so no gate is embedded as a full matrix.  The state stays in
    the axis order the last gate left and is put back in order once, at the
    end.
    """
    require_dense_dim(c.space.total_dim)
    dims = c.space.dims
    axes = list(range(len(dims)))
    out = np.eye(c.space.total_dim, dtype=complex).reshape(*dims, -1)
    for i in reversed(range(len(c.gates))):
        try:
            out, axes = _apply(dims, _lower(dims, c.gates[i]), out, axes)
        except CircuitError as exc:
            raise CircuitError(f"gate {i}: {exc}") from exc
    return _in_order(dims, out, axes)


# palette values (complex entries of branch matrices) that the permutation
# decode lowers and tests per batch.  A batch's stack and masks take about
# 20 bytes a value, some 300 KB, which stays in cache; batches of 32 K values
# and more made circuits of large branches up to twice as slow
DECODE_CHUNK = 1 << 14


def _lowered_batches(c: Circuit):
    """The lowered gates of ``c`` in order, in batches of ``DECODE_CHUNK`` palette values.

    Yields ``(first, batch)``, with ``first`` the number of the batch's
    first gate; a batch ends at the gate that brings it to
    ``DECODE_CHUNK`` values or more.  A gate that fails to lower ends the
    batch before it, and its CircuitError is raised once that batch has
    been taken, so a bad gate before it is reported first.
    """
    dims = c.space.dims
    first, batch, size = 0, [], 0
    for i, g in enumerate(c.gates):
        try:
            lowered = _lower(dims, g)
        except CircuitError as exc:
            if batch:
                yield first, batch
            raise CircuitError(f"gate {i}: {exc}") from exc
        batch.append(lowered)
        size += lowered[2].size
        if size >= DECODE_CHUNK:
            yield first, batch
            first, batch, size = i + 1, [], 0
    if batch:
        yield first, batch


def _permutation_tables(first: int, batch) -> list:
    """``(rows, vals)`` of the palette of each lowered gate, as in ``read_permutations``.

    The palettes of one branch size are stacked and decoded together.
    Raises CircuitError naming the first gate, counted from ``first``, with
    an entry that is not a complex permutation.
    """
    by_side: dict[int, list[int]] = {}
    for j, (_, _, palette, _) in enumerate(batch):
        by_side.setdefault(palette.shape[1], []).append(j)
    tables: list = [None] * len(batch)
    bad_gates = []
    for members in by_side.values():
        palettes = [batch[j][2] for j in members]
        rows, vals, bad = read_permutations(palettes[0] if len(palettes) == 1 else np.concatenate(palettes))
        ends = np.cumsum([len(p) for p in palettes])
        if bad.any():  # the gate whose entries end past the first bad one
            bad_gates.append(members[np.searchsorted(ends, bad.argmax(), side="right")])
        for j, lo, hi in zip(members, [0, *ends.tolist()], ends.tolist()):
            tables[j] = rows[lo:hi], vals[lo:hi]
    if bad_gates:
        raise CircuitError(f"gate {first + min(bad_gates)}: gate is not a complex permutation")
    return tables


def circuit_permutation(c: Circuit):
    """Exact (targets, phases) action of a circuit of complex-permutation gates.

    ``targets[i]`` is the image basis index of |i> and ``phases[i]`` the
    accumulated phase, computed with integer arithmetic and exact phase
    products.  Raises CircuitError if some gate is not a complex permutation.

    The gates are lowered and their palettes decoded in batches
    (``_lowered_batches``, ``_permutation_tables``).  What is left per gate
    is spreading its table over the states and the composition, through an
    index grid built once per pair of control and target axes
    (``_table_grid``).
    """
    dims = c.space.dims
    targets = np.arange(c.space.total_dim, dtype=np.int64)
    phases = np.ones(c.space.total_dim, dtype=complex)
    grids: dict = {}
    for first, batch in _lowered_batches(c):
        for (controls, axes, _, index), (rows, vals) in zip(batch, _permutation_tables(first, batch)):
            if (controls, axes) not in grids:
                grids[controls, axes] = _table_grid(dims, controls, axes)
            cell, base, offset = grids[controls, axes]
            # gate table: state x goes to x with its target levels replaced by their image
            image = base + offset[rows[index]].ravel()[cell]
            # product order: the current result is applied after this gate
            targets = targets[image]
            phases = phases[image] * vals[index].ravel()[cell]
    return targets, phases


def _table_grid(dims, controls, targets):
    """``(cell, base, offset)``: how a gate on these axes moves the basis states.

    State x has control tuple t and target levels j; ``cell[x]`` is
    ``t * d_targets + j``, ``offset[j]`` is what the target levels j add to a
    state's number, and ``base[x]`` is x without them.
    """
    idx, _ = _grouped(dims, controls, targets, np.arange(math.prod(dims)).reshape(dims))
    offset = idx[0, :, 0] - idx[0, 0, 0]
    cell = np.empty(idx.size, dtype=np.intp)
    cell[idx] = np.arange(idx.shape[0] * idx.shape[1]).reshape(idx.shape[:2] + (1,))
    base = np.empty(idx.size, dtype=np.intp)
    base[idx] = idx - offset[:, None]
    return cell, base, offset


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class GateClassification:
    kind: str
    controlled_from_a: bool
    controlled_from_b: bool
    schmidt_rank: int


@dataclass(frozen=True)
class VerificationReport:
    max_error: float
    leakage: float
    ancilla_restored: bool
    gate_counts: tuple[tuple[str, int], ...]
    nonlocal_cnot: int
    classifications: tuple[GateClassification, ...] | None
    passed: bool

    def counts(self) -> dict[str, int]:
        return dict(self.gate_counts)


def _ancilla_initial_indices(space: PartySpace) -> np.ndarray:
    dims = space.dims
    idx = np.arange(math.prod(dims)).reshape(dims)
    sl: list = [slice(None)] * len(dims)
    for i, a in enumerate(space.ancillas):
        sl[len(space.parties) + i] = a.init
    return idx[tuple(sl)].reshape(-1)


def verify_decomposition(u, c: Circuit, tol: float = RECON_TOL, classify: bool = True) -> VerificationReport:
    """Compare a circuit against a target unitary on the declared party space.

    With ancillas present, the comparison is restricted to columns where every
    ancilla starts in its initial basis state; ``leakage`` measures amplitude
    escaping that subspace and ``ancilla_restored`` asserts it stays within
    ``tol``.  Failures are reported, never raised.  With ``classify`` on
    (the default), ``classifications`` holds :func:`classify_gate` of every
    gate across the first-party cut; it is read from the palettes and adds
    little to the dense check.
    """
    u = as_matrix(u)
    party_total = math.prod(c.space.party_dims)
    if u.shape != (party_total, party_total):
        raise CircuitError(
            f"target is {u.shape}, expected {(party_total, party_total)} for this space"
        )
    m = apply_circuit(c)
    if not c.space.ancillas:
        err = max_abs(m - u)
        leak = 0.0
        restored = True
    else:
        cols = _ancilla_initial_indices(c.space)
        sub = m[:, cols]
        block = sub[cols, :]
        err_block = max_abs(block - u)
        mask = np.ones(m.shape[0], dtype=bool)
        mask[cols] = False
        leak = max_abs(sub[mask, :]) if mask.any() else 0.0
        restored = leak <= tol
        err = max(err_block, leak)
    classifications = None
    if classify:
        classifications = tuple(classify_gate(c.space, g) for g in c.gates)
    met = recompute_metrics(c)
    return VerificationReport(
        max_error=err,
        leakage=leak,
        ancilla_restored=restored,
        gate_counts=met.gate_counts,
        nonlocal_cnot=met.nonlocal_cnot,
        classifications=classifications,
        passed=(err <= tol) and restored,
    )


def _classify(v: np.ndarray):
    """``(from_a, from_b, schmidt_rank)`` of a gate given as ``v[ca, cb, ta, tb, ta', tb']``.

    ``v[ca, cb]`` is the branch applied when the A-side control axes hold
    ``ca`` and the B-side ones hold ``cb``, with its A-side target axes
    grouped before its B-side ones.  The gate is diagonal on its control
    axes, so it is controlled from A exactly when no branch entry with
    ``ta != ta'`` exceeds ``DEFAULT_EPS``, and from B likewise on ``tb``.  Up
    to zero rows and columns, its realigned matrix is ``v`` with rows
    ``(ca, ta, ta')`` and columns ``(cb, tb, tb')``, so that matrix has the
    Schmidt rank.  Its all-zero rows and columns are dropped before the rank
    is taken, which leaves the nonzero singular values as they are.
    """
    n_ca, n_cb, d_ta, d_tb = v.shape[:4]
    mag = np.abs(v)
    moves_a = mag.max(axis=(0, 1, 3, 5))[~np.eye(d_ta, dtype=bool)]
    moves_b = mag.max(axis=(0, 1, 2, 4))[~np.eye(d_tb, dtype=bool)]
    r = v.transpose(0, 2, 4, 1, 3, 5).reshape(n_ca * d_ta * d_ta, n_cb * d_tb * d_tb)
    nonzero = r != 0
    r = r[nonzero.any(axis=1)][:, nonzero.any(axis=0)]
    return max_abs(moves_a) <= DEFAULT_EPS, max_abs(moves_b) <= DEFAULT_EPS, matrix_rank(r)


def classify_matrix(m, da: int, db: int):
    """Computational-basis controlledness and Schmidt rank across a (da, db) cut."""
    m = as_matrix(m)
    if m.shape != (da * db, da * db):
        raise ValueError(f"operator is {m.shape}, expected {(da * db, da * db)}")
    return _classify(m.reshape(1, 1, da, db, da, db))


def classify_gate(space: PartySpace, g: Gate, cut: int = 1) -> GateClassification:
    """Classify one gate across the party bipartition (first ``cut`` parties vs rest).

    An axis is on the A side when its host is one of the first ``cut``
    parties.  The result is read from the lowered gate's palette and control
    index, with control and target axes each regrouped A side first; no
    matrix on the gate's axes or on the space is built.
    """
    controls, targets, palette, index = _lower(space.dims, g)
    dims = space.dims
    a_names = {n for n, _ in space.parties[:cut]}

    def a_first(axes):
        a = [i for i, ax in enumerate(axes) if space.axis_host(ax) in a_names]
        b = [i for i in range(len(axes)) if i not in a]
        sizes = (math.prod(dims[axes[i]] for i in side) for side in (a, b))
        return (a + b, *sizes)

    c_order, n_ca, n_cb = a_first(controls)
    t_order, d_ta, d_tb = a_first(targets)
    nt = len(targets)
    t_dims = [dims[ax] for ax in targets]
    idx = index.reshape([dims[ax] for ax in controls]).transpose(c_order).reshape(n_ca, n_cb)
    pal = palette.reshape(-1, *t_dims, *t_dims)
    pal = pal.transpose(0, *(1 + i for i in t_order), *(1 + nt + i for i in t_order))
    from_a, from_b, rank = _classify(pal.reshape(-1, d_ta, d_tb, d_ta, d_tb)[idx])
    return GateClassification(g.kind, from_a, from_b, rank)


# ---------------------------------------------------------------------------
# structural validation


def validate_circuit(c: Circuit) -> None:
    """Check the IR invariants: gate structure, unitary branches, two-level rank.

    Unitarity is checked to ``DEFAULT_EPS`` once per palette entry.
    """
    for i, g in enumerate(c.gates):
        try:
            _, _, palette, _ = _lower(c.space.dims, g)
        except CircuitError as exc:
            raise CircuitError(f"gate {i}: {exc}") from exc
        if not all(is_unitary(m) for m in palette):
            raise CircuitError(f"gate {i}: a branch is not unitary at {DEFAULT_EPS}")
        if isinstance(g, TwoLevelGate) and schmidt_rank(g.matrix, 2, 2) > 2:
            raise CircuitError(f"gate {i}: two-level part has Schmidt rank > 2")
        if isinstance(g, LocalGate):
            hosts = {c.space.axis_host(ax) for ax in g.axes}
            if len(hosts) != 1:
                raise CircuitError(f"gate {i}: local gate spans multiple hosts {hosts}")
