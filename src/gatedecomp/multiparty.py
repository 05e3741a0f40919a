"""Generalized sandwich forms for n-party unitaries.

Every emitted gate is controlled in the computational basis from n-1 fixed
parties.  One recursion makes both forms: a sandwich across a cut of the
parties whose gates' branches are decomposed again.  The n-party form cuts
party 1 from the rest, the 4-party form AB from CD, which wins in some
dimension regimes.  Gate counts are bounded by the closed-form products
evaluated by ``multiparty_bound`` and ``fourparty_bound``; identity stripping
happens only after bound accounting so the reported counts stay conservative.
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


def _stacked(gates: list, first: int) -> np.ndarray:
    """The branches of ``gates[first::2]`` as one (-1, d, d) stack.

    Those entries of ``gates`` become None, so only the result holds the data.
    """
    parts = gates[first::2]
    gates[first::2] = [None] * len(parts)
    out = np.concatenate(parts)
    return out.reshape((-1,) + out.shape[-2:])


def _multi_gates(u: np.ndarray, dims: tuple[int, ...], cut: int = 1):
    """(controls, target, stack) triples in product order; fixed schedule.

    ``u`` is a (k, N, N) stack of inputs and every ``stack`` has shape
    ``(k,) + ctrl_dims + (d, d)``: after the item axis, its leading axes run
    over the control parties in order and d is the target party's dimension.
    The sandwich across ``dims[:cut] | dims[cut:]`` depends on ``dims`` and
    ``cut`` alone, so the branches of all gates controlled from one side go
    down in one recursive call on the other side, and lifting a sub-schedule
    is a reshape.
    """
    n = len(dims)
    if n == 1:
        return [((), 0, u)]
    k, left, right = len(u), dims[:cut], dims[cut:]
    gates = _sandwich_gates(u, math.prod(left), math.prod(right))
    del u
    from_left = [
        (tuple(range(cut)) + tuple(c + cut for c in ctrl), tgt + cut,
         s.reshape((-1, k) + left + s.shape[1:]))
        for ctrl, tgt, s in _multi_gates(_stacked(gates, 0), right)
    ]
    # a sub-schedule's control axes lie in the left group, so they move to
    # before the right group's
    from_right = [
        (ctrl + tuple(range(cut, n)), tgt,
         np.moveaxis(s.reshape((-1, k) + right + s.shape[1:]),
                     range(-2 - len(ctrl), -2), range(2, 2 + len(ctrl))))
        for ctrl, tgt, s in _multi_gates(_stacked(gates, 1), left)
    ]
    out = []
    for pos in range(len(gates)):
        side = from_right if pos % 2 else from_left
        out.extend((c, t, s[pos // 2]) for c, t, s in side)
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
    """Generalized sandwich form for four parties: the recursion cut AB|CD."""
    dims = tuple(dims)
    u = unitary_input(u, dims)
    if len(dims) != 4:
        raise PreconditionError("expected exactly four parties")
    if any(d < 2 for d in dims):
        raise PreconditionError("party dimensions must be >= 2")
    spec = [(c, t, s[0]) for c, t, s in _multi_gates(u[None], dims, 2)]
    return _finalize(spec, dims, fourparty_bound(*dims))
