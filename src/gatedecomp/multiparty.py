"""Generalized sandwich forms for n-party unitaries.

Every emitted gate is controlled in the computational basis from n-1 fixed
parties.  The n-party recursion cuts party 1 from the rest; the dedicated
4-party routine cuts AB from CD, which wins in some dimension regimes.  Gate
counts are bounded by the closed-form products evaluated by
``multiparty_bound`` and ``fourparty_bound``; identity stripping happens only
after bound accounting so the reported counts stay conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gateir import Circuit, ControlledGate, multiparty_space
from .matcore import PreconditionError, require_square, unitary_input
from .sandwich import _eye_stack, _is_identity, _sandwich_gates


def multiparty_bound(dims) -> int:
    """Gate bound 2 * prod_{j<n} (2 d_j - 2) - 1 over the first n-1 parties."""
    dims = tuple(dims)
    prod = 1
    for d in dims[:-1]:
        prod *= 2 * d - 2
    return 2 * prod - 1


def fourparty_bound(da: int, db: int, dc: int, dd: int) -> int:
    """Gate bound 4 (dA dB - 1)(2 dA + 2 dC - 5) - 4 dA + 5 for the AB|CD cut."""
    return 4 * (da * db - 1) * (2 * da + 2 * dc - 5) - 4 * da + 5


@dataclass(frozen=True, eq=False)
class MultipartiteSandwichResult:
    """Circuit of (n-1)-controlled gates with its declared bound.

    ``patterns`` records each kept gate's controlling axis set;
    ``full_count`` is the gate count before identity stripping, which is what
    the bound certifies.
    """

    circuit: Circuit
    bound: int
    patterns: tuple[tuple[int, ...], ...]
    full_count: int


def _multi_gates(u: np.ndarray, dims: tuple[int, ...]):
    """(controls, target, stack) triples in product order; fixed schedule.

    ``stack`` has shape ``ctrl_dims + (d, d)``: its leading axes run over the
    control parties in order and d is the target party's dimension.
    """
    n = len(dims)
    if n == 1:
        return [((), 0, u)]
    out = []
    for pos, g in enumerate(_sandwich_gates(u, dims[0], math.prod(dims[1:]))):
        if pos % 2 == 0:
            # controlled from party 0: lift every branch's sub-schedule
            subs = [_multi_gates(branch, dims[1:]) for branch in g]
            for entries in zip(*subs, strict=True):
                ctrl, tgt, _ = entries[0]
                if any((c, t) != (ctrl, tgt) for c, t, _ in entries):
                    raise AssertionError("branch schedules diverged")
                controls = (0,) + tuple(c + 1 for c in ctrl)
                out.append((controls, tgt + 1, np.stack([s for _, _, s in entries])))
        else:
            out.append((tuple(range(1, n)), 0, g.reshape(dims[1:] + g.shape[1:])))
    return out


def _finalize(spec, dims, bound: int) -> MultipartiteSandwichResult:
    kept = [(c, t, s) for c, t, s in spec if not _is_identity(s)]
    if not kept:
        n = len(dims)
        ident = _eye_stack(math.prod(dims[:-1]), dims[-1])
        kept = [(tuple(range(n - 1)), n - 1, ident.reshape(dims[:-1] + ident.shape[1:]))]
    records = []
    for c, t, s in kept:
        ctrl_dims, d = s.shape[:-2], s.shape[-1]
        index = np.arange(math.prod(ctrl_dims)).reshape(ctrl_dims)
        records.append(ControlledGate(c, (t,), s.reshape(-1, d, d), index))
    patterns = tuple(c for c, _, _ in kept)
    circuit = Circuit(multiparty_space(dims), records)
    return MultipartiteSandwichResult(circuit, bound, patterns, len(spec))


def decompose_multiparty(u, dims) -> MultipartiteSandwichResult:
    """Generalized sandwich form over the party-1-first recursion."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise PreconditionError("need at least two parties")
    if any(d < 2 for d in dims):
        raise PreconditionError("party dimensions must be >= 2")
    u = require_square(u)
    if u.shape[0] != math.prod(dims):
        raise ValueError(f"matrix is {u.shape}, expected dim {math.prod(dims)}")
    u = unitary_input(u)
    spec = _multi_gates(u, dims)
    bound = multiparty_bound(dims)
    if len(spec) > bound:
        raise AssertionError(f"schedule length {len(spec)} exceeds bound {bound}")
    return _finalize(spec, dims, bound)


def decompose_4party(u, dims) -> MultipartiteSandwichResult:
    """Generalized sandwich form for four parties via the AB|CD cut."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4:
        raise PreconditionError("expected exactly four parties")
    if any(d < 2 for d in dims):
        raise PreconditionError("party dimensions must be >= 2")
    da, db, dc, dd = dims
    u = require_square(u)
    if u.shape[0] != math.prod(dims):
        raise ValueError(f"matrix is {u.shape}, expected dim {math.prod(dims)}")
    u = unitary_input(u)

    spec = []
    for pos, g in enumerate(_sandwich_gates(u, da * db, dc * dd)):
        if pos % 2 == 0:
            # controlled from the AB pair; re-decompose every CD branch, keys (ka, kb, v)
            subs = [_sandwich_gates(branch, dc, dd) for branch in g]
            for i, stacks in enumerate(zip(*subs, strict=True)):
                s = np.stack(stacks)
                heads = ((0, 1, 2), 3) if i % 2 == 0 else ((0, 1, 3), 2)
                spec.append(heads + (s.reshape((da, db) + s.shape[1:]),))
        else:
            # controlled from the CD pair; re-decompose every AB branch, keys (v, kc, kd)
            subs = [_sandwich_gates(branch, da, db) for branch in g]
            for i, stacks in enumerate(zip(*subs, strict=True)):
                s = np.stack(stacks, axis=1)
                heads = ((0, 2, 3), 1) if i % 2 == 0 else ((1, 2, 3), 0)
                spec.append(heads + (s.reshape(s.shape[:1] + (dc, dd) + s.shape[2:]),))
    bound = fourparty_bound(da, db, dc, dd)
    if len(spec) > bound:
        raise AssertionError(f"schedule length {len(spec)} exceeds bound {bound}")
    return _finalize(spec, dims, bound)
