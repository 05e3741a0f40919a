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

from .gateir import Circuit, multiparty_space
from .matcore import PreconditionError, unitary_input
from .sandwich import _controlled_records, _sandwich_gates


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


def _stacked(parts: list) -> np.ndarray:
    """``np.concatenate(parts)``, emptying ``parts`` so that only the result holds the data."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _multi_gates(u: np.ndarray, dims: tuple[int, ...]):
    """(controls, target, stack) triples in product order; fixed schedule.

    ``u`` is a (k, N, N) stack of inputs and every ``stack`` has shape
    ``(k,) + ctrl_dims + (d, d)``: after the item axis, its leading axes run
    over the control parties in order and d is the target party's dimension.
    The schedule depends on ``dims`` alone, so every branch of every
    party-0-controlled gate goes down in one recursive call, and lifting its
    sub-schedule is a reshape.
    """
    n = len(dims)
    if n == 1:
        return [((), 0, u)]
    k, d0, m = len(u), dims[0], math.prod(dims[1:])
    gates = _sandwich_gates(u, d0, m)
    del u
    a_ctrl = gates[0::2]
    gates[0::2] = [None] * len(a_ctrl)
    # the branches of the party-0-controlled gates, each (k, d0, m, m), as one
    # stack that only the recursive call holds
    subs = _multi_gates(_stacked(a_ctrl).reshape(-1, m, m), dims[1:])
    lifted = [
        ((0,) + tuple(c + 1 for c in ctrl), tgt + 1, s.reshape((-1, k, d0) + s.shape[1:]))
        for ctrl, tgt, s in subs
    ]
    out = []
    for pos, g in enumerate(gates):
        if pos % 2 == 0:
            out.extend((c, t, s[pos // 2]) for c, t, s in lifted)
        else:
            out.append((tuple(range(1, n)), 0, g.reshape((k,) + dims[1:] + g.shape[2:])))
    return out


def _finalize(spec, dims, bound: int) -> MultipartiteSandwichResult:
    if len(spec) > bound:
        raise AssertionError(f"schedule length {len(spec)} exceeds bound {bound}")
    records, kept = _controlled_records(spec)
    patterns = tuple(spec[i][0] for i in kept)
    circuit = Circuit(multiparty_space(dims), records)
    return MultipartiteSandwichResult(circuit, bound, patterns, len(spec))


def decompose_multiparty(u, dims) -> MultipartiteSandwichResult:
    """Generalized sandwich form over the party-1-first recursion."""
    dims = tuple(dims)
    u = unitary_input(u, dims)
    if len(dims) < 2:
        raise PreconditionError("need at least two parties")
    if any(d < 2 for d in dims):
        raise PreconditionError("party dimensions must be >= 2")
    spec = [(c, t, s[0]) for c, t, s in _multi_gates(u[None], dims)]
    return _finalize(spec, dims, multiparty_bound(dims))


def decompose_4party(u, dims) -> MultipartiteSandwichResult:
    """Generalized sandwich form for four parties via the AB|CD cut."""
    dims = tuple(dims)
    u = unitary_input(u, dims)
    if len(dims) != 4:
        raise PreconditionError("expected exactly four parties")
    if any(d < 2 for d in dims):
        raise PreconditionError("party dimensions must be >= 2")
    da, db, dc, dd = dims

    gates = [g[0] for g in _sandwich_gates(u[None], da * db, dc * dd)]
    # the branches of every AB-controlled gate go down as one stack, and those
    # of every CD-controlled gate as another; gate j's part is entry j after
    # the reshape.  AB-controlled: keys (ka, kb, v); CD-controlled: (v, kc, kd)
    ab = _sandwich_gates(np.concatenate(gates[0::2]), dc, dd)
    ab = [s.reshape((-1, da, db) + s.shape[1:]) for s in ab]
    cd = _sandwich_gates(np.concatenate(gates[1::2]), da, db)
    cd = [np.moveaxis(s.reshape((-1, dc, dd) + s.shape[1:]), 3, 1) for s in cd]
    spec = []
    for pos in range(len(gates)):
        j = pos // 2
        if pos % 2 == 0:
            heads = (((0, 1, 2), 3), ((0, 1, 3), 2))
            spec += [heads[i % 2] + (s[j],) for i, s in enumerate(ab)]
        else:
            heads = (((0, 2, 3), 1), ((1, 2, 3), 0))
            spec += [heads[i % 2] + (s[j],) for i, s in enumerate(cd)]
    return _finalize(spec, dims, fourparty_bound(da, db, dc, dd))
