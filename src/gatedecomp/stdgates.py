"""Compilation from controlled/sandwich forms down to standard two-level gates.

A standard gate is identity outside one 2x2 subspace of the bipartite cut and
has a Schmidt-rank <= 2 nontrivial part.  Closed-form count budgets:

    general      2 (dA-1)^2 floor(dB/2) + (2 dA-3)(dB-1) floor(dA/2)
    controlledA  (dA-1) floor(dB/2)
    complexPerm  2 (dA-1) floor(dB/2) + (dB-1) floor(dA/2)
    permCNOT     3 (dA-1)(dB-1)

The permCNOT mode emits gates whose nontrivial part is exactly CNOT and is
exact in integer arithmetic; the phase-pair modes are numerical (eigphases of
the branch unitaries) and reconstruct to verification tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gateir import (
    Circuit,
    ControlledGate,
    LocalGate,
    TwoLevelGate,
    bipartite_space,
)
from .matcore import (
    IDENTITY_TOL,
    PreconditionError,
    max_abs,
    perm_matrix,
    unitary_eig,
)
from .permdecomp import ComplexPermutation, decompose_perm3
from .sandwich import decompose_sandwich

_FORMULAS = {
    "general": lambda da, db: 2 * (da - 1) ** 2 * (db // 2)
    + (2 * da - 3) * (db - 1) * (da // 2),
    "controlledA": lambda da, db: (da - 1) * (db // 2),
    "complexPerm": lambda da, db: 2 * (da - 1) * (db // 2) + (db - 1) * (da // 2),
    "permCNOT": lambda da, db: 3 * (da - 1) * (db - 1),
}


@dataclass(frozen=True)
class StandardGateBudget:
    formula: str
    da: int
    db: int
    bound: int

    @classmethod
    def evaluate(cls, formula: str, da: int, db: int) -> "StandardGateBudget":
        if formula not in _FORMULAS:
            raise ValueError(f"unknown budget formula {formula!r}")
        return cls(formula, da, db, _FORMULAS[formula](da, db))


@dataclass(frozen=True, eq=False)
class StandardCompilation:
    circuit: Circuit
    standard_count: int
    budget: StandardGateBudget


def _phase_pair_gates(phases, ctrl_level: int, da: int, db: int, side: str):
    """Two-level diagonal gates realizing the given phases on one control level.

    ``phases`` has length d-1 (last level already normalized to 1) padded here
    to full length; gates touching only unit phases are skipped.
    """
    gates = []
    d = len(phases)
    other = 0 if ctrl_level != 0 else 1
    for r in range(d // 2):
        x1, x2 = phases[2 * r], phases[2 * r + 1]
        if abs(x1 - 1.0) <= IDENTITY_TOL and abs(x2 - 1.0) <= IDENTITY_TOL:
            continue
        if side == "A":
            mat = np.diag([1.0, 1.0, x1, x2]).astype(complex)
            gates.append(TwoLevelGate(0, (other, ctrl_level), 1, (2 * r, 2 * r + 1), mat))
        else:
            mat = np.diag([1.0, x1, 1.0, x2]).astype(complex)
            gates.append(TwoLevelGate(0, (2 * r, 2 * r + 1), 1, (other, ctrl_level), mat))
    return gates


def compile_controlled_to_standard(gate: ControlledGate, da: int, db: int) -> StandardCompilation:
    """Standard-gate circuit for one computational-basis controlled gate.

    Works for gates controlled from either side of a bipartite space; the
    budget is (d_ctrl - 1) * floor(d_other / 2).  Convention: the branch at
    the *last* controlling level is factored out first as a local on the
    target side, so only d_ctrl - 1 branches need phase-pair gates.
    """
    if gate.controls == (0,) and gate.targets == (1,):
        side, d_ctrl, d_tgt = "A", da, db
    elif gate.controls == (1,) and gate.targets == (0,):
        side, d_ctrl, d_tgt = "B", db, da
    else:
        raise PreconditionError("expected a single-party-controlled bipartite gate")
    last = gate.branch((d_ctrl - 1,))
    # per palette entry: its eigenbasis relative to the last branch, or None
    # where the two agree
    reduced = []
    for p in gate.palette:
        vk = p @ last.conj().T
        reduced.append(None if max_abs(vk - np.eye(d_tgt)) <= IDENTITY_TOL else unitary_eig(vk))

    records = []
    count = 0
    tail_axis = 1 if side == "A" else 0
    for k in range(d_ctrl - 1):
        eig = reduced[gate.index[k]]
        if eig is None:
            continue
        q, w = eig
        ph_last = w[d_tgt - 1]
        w_norm = w * np.conj(ph_last)
        # branch-local similarity, a phase on the controlling level, then
        # phase-pair two-level gates
        ctrl_phase = np.ones(d_ctrl, dtype=complex)
        ctrl_phase[k] = ph_last
        records.append(LocalGate(tail_axis, q))
        records.append(LocalGate(1 - tail_axis, np.diag(ctrl_phase)))
        std = _phase_pair_gates(list(w_norm), k, da, db, side)
        count += len(std)
        records.extend(std)
        records.append(LocalGate(tail_axis, q.conj().T))
    if max_abs(last - np.eye(d_tgt)) > IDENTITY_TOL:
        records.append(LocalGate(tail_axis, last))
    budget = StandardGateBudget.evaluate("controlledA", d_ctrl, d_tgt)
    space = bipartite_space(da, db)
    return StandardCompilation(Circuit(space, tuple(records)), count, budget)


def compile_to_standard(u, da: int, db: int, mode: str = "general") -> StandardCompilation:
    """Compile a bipartite unitary to standard gates plus locals.

    ``general`` runs the sandwich decomposition and compiles each controlled
    layer; ``complexPerm`` requires a complex-permutation input, a matrix or
    a ``ComplexPermutation`` on dims (dA, dB), and goes through the exact
    3-gate permutation form first.  Each route checks a matrix itself
    (``decompose_sandwich``, ``ComplexPermutation.from_matrix``).
    """
    if mode == "general":
        layers = decompose_sandwich(u, da, db).circuit.gates
        budget = StandardGateBudget.evaluate("general", da, db)
    elif mode == "complexPerm":
        if isinstance(u, ComplexPermutation):
            cp = u
            if cp.dims != (da, db):
                raise ValueError(f"permutation on dims {cp.dims}, expected {(da, db)}")
        else:
            cp = ComplexPermutation.from_matrix(u, (da, db))
        layers = decompose_perm3(cp).circuit.gates
        budget = StandardGateBudget.evaluate("complexPerm", da, db)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    records = []
    count = 0
    for g in layers:
        sub = compile_controlled_to_standard(g, da, db)
        records.extend(sub.circuit.gates)
        count += sub.standard_count
    if count > budget.bound:
        raise AssertionError(f"standard-gate count {count} exceeds budget {budget.bound}")
    return StandardCompilation(Circuit(bipartite_space(da, db), tuple(records)), count, budget)


# ---------------------------------------------------------------------------
# CNOT-type compilation of plain permutations (exact)

_CNOT_CTRL_A = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CNOT_CTRL_B = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def _cycle_transpositions(perm: np.ndarray):
    """Transpositions whose product (left factor last) equals the permutation.

    Cycles are taken smallest-element-first; a cycle (c1 c2 ... cm) becomes
    (c1 c2)(c2 c3)...(c_{m-1} c_m) in product order.
    """
    n = perm.size
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = int(perm[start])
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = int(perm[x])
        for i in range(len(cycle) - 1):
            out.append((cycle[i], cycle[i + 1]))
    return out


@dataclass(frozen=True, eq=False)
class CnotCompilation:
    circuit: Circuit
    cnot_gate_count: int
    local_transpositions: int
    budget: StandardGateBudget
    combined_bound: int


def compile_perm_to_cnot_type(cp: ComplexPermutation) -> CnotCompilation:
    """Compile a plain bipartite permutation into CNOT-type standard gates.

    Each of the three controlled-permutation stages is normalized so its
    first branch is the identity (a free local permutation) and the remaining
    branches are emitted as controlled-transposition chains.  Exact.
    """
    if len(cp.dims) != 2:
        raise ValueError("expected a bipartite permutation")
    if not cp.is_plain:
        raise PreconditionError("input permutation must be phase-free")
    da, db = cp.dims
    ps = decompose_perm3(cp)
    records = []
    cnot_count = 0
    local_transpositions = 0

    def emit_stage(stage: np.ndarray, side: str):
        nonlocal cnot_count, local_transpositions
        # stage[v] is the target-side permutation for controlling value v
        base = stage[0]
        base_inv = np.empty_like(base)
        base_inv[base] = np.arange(base.size)
        for v in range(1, stage.shape[0]):
            reduced = stage[v][base_inv]
            for (s, t) in _cycle_transpositions(reduced):
                if side == "A":
                    records.append(TwoLevelGate(0, (0, v), 1, (s, t), _CNOT_CTRL_A))
                else:
                    records.append(TwoLevelGate(0, (s, t), 1, (0, v), _CNOT_CTRL_B))
                cnot_count += 1
        if (base != np.arange(base.size)).any():
            axis = 1 if side == "A" else 0
            records.append(LocalGate(axis, perm_matrix(base)))
            local_transpositions += len(_cycle_transpositions(base))

    emit_stage(ps.sigma1, "A")
    emit_stage(ps.tau2, "B")
    emit_stage(ps.sigma3, "A")

    budget = StandardGateBudget.evaluate("permCNOT", da, db)
    if cnot_count > budget.bound:
        raise AssertionError(f"CNOT-type count {cnot_count} exceeds budget {budget.bound}")
    combined_bound = 3 * da * db - da - db - 1
    if cnot_count + local_transpositions > combined_bound:
        raise AssertionError("combined transposition count exceeds its bound")
    circuit = Circuit(bipartite_space(da, db), tuple(records))
    return CnotCompilation(circuit, cnot_count, local_transpositions, budget, combined_bound)
