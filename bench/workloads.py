"""The two benchmark workloads: seeded inputs, one instance each, and its check.

A workload is a cycle of instance kinds.  ``build`` makes ``pool`` cycles of
inputs from the seed before timing starts; the timed loop runs whole cycles
(reusing the pool when it runs out), so every run sees the same mix of
kinds and a median or percentile never jumps between kinds because a run
stopped part way through a cycle.

Every instance is decomposed *and* checked; a check that fails raises
`CheckFailed`.  Library calls go through module attributes looked up at call
time, so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gatedecomp as gd
from gatedecomp import cli, codecs
from gatedecomp.generators import haar_unitary, random_permutation

TOL = 1e-8
RANK_NODE_BUDGET = 5000  # the node budget the acceptance tests use
RANK_KINDS = ("rank", "xor", "binary", "nonneg")


class CheckFailed(AssertionError):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Outcome:
    gates: int
    cnots: int = 0
    rank_queries: int = 0
    rank_exact: int = 0


@dataclass(frozen=True)
class Instance:
    kind: str
    run: Callable[[], Outcome]


def instance(kind: str, fn, *args) -> Instance:
    return Instance(kind, functools.partial(fn, *args))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, workdir, tiny, pool) -> list of cycles, each a list of Instance
    pool: int  # distinct input cycles generated per run
    tail_pct: float  # fixed so that a faster program never moves the tail to another percentile


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**62, size=n)]


def _dense_check(u, circuit) -> None:
    rep = gd.verify_decomposition(u, circuit, tol=TOL, classify=False)
    check(rep.passed and rep.ancilla_restored, f"dense error {rep.max_error:.3e} > {TOL}")


# ---------------------------------------------------------------------------
# dense


def _sandwich_instance(u, da: int, db: int) -> Outcome:
    res = gd.decompose_sandwich(u, da, db)
    _dense_check(u, res.circuit)
    n = len(res.circuit.gates)
    check(n <= res.bound, f"{n} gates > bound {res.bound}")
    return Outcome(n, res.circuit.metrics.nonlocal_cnot)


def _multiparty_instance(method: str, u, dims) -> Outcome:
    fn = gd.decompose_multiparty if method == "multi" else gd.decompose_4party
    res = fn(u, dims)
    _dense_check(u, res.circuit)
    n = len(res.circuit.gates)
    check(n <= res.full_count <= res.bound, f"{n} gates, full {res.full_count}, bound {res.bound}")
    return Outcome(n, res.circuit.metrics.nonlocal_cnot)


def _build_dense(seed: int, workdir: Path, tiny: bool, pool: int):
    """Bipartite sandwiches with few large recursion nodes, and multiparty
    circuits whose recursion is thousands of tiny nodes, in one cycle.

    Bipartite: dA = 16 splits evenly down to 2; dA = 24 reaches odd halves
    (3) and has the 63-gate bound.  The small 2x2x3x3 makes the number of
    kinds odd, so a cycle's median is one kind (the 4-party 3^4) with
    neighbours a quarter away, not the mean of two.  A multiparty kind comes
    first: it is the warm-up instance, and the cheapest to repeat.
    """
    if tiny:
        kinds = (("multi", (2, 2, 2)), ("party4", (2, 2, 2, 2)), ("sandwich", (3, 2)))
    else:
        kinds = (
            ("multi", (2, 2, 3, 3)),
            ("multi", (2,) * 6),
            ("multi", (3,) * 4),
            ("multi", (4,) * 4),
            ("party4", (3,) * 4),
            ("sandwich", (16, 13)),
            ("sandwich", (24, 9)),
        )
    it = iter(_seeds(seed, 2, pool * len(kinds)))
    cycles = []
    for _ in range(pool):
        cycle = []
        for method, dims in kinds:
            u = haar_unitary(int(np.prod(dims)), next(it))
            name = f"{method}-{'x'.join(map(str, dims))}"
            if method == "sandwich":
                cycle.append(instance(name, _sandwich_instance, u, *dims))
            else:
                cycle.append(instance(name, _multiparty_instance, method, u, dims))
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# integer-cli: the integer path


def _perm_instance(cp, u, da: int, db: int) -> Outcome:
    targets = np.asarray(cp.targets)
    p3 = gd.decompose_perm3(cp)
    check(len(p3.circuit.gates) <= 3, "perm3 emitted more than 3 gates")
    t, p = gd.circuit_permutation(p3.circuit)
    check(np.array_equal(t, targets) and bool((p == 1).all()), "perm3 table mismatch")
    exp = gd.pp_expansion(u, da, db)
    check(exp.q <= min(exp.bound_components), f"q = {exp.q} over its bound")
    res = gd.emit_backup_protocol(u, exp, da, db)
    cnots = res.expanded.metrics.nonlocal_cnot
    check(cnots == res.cnot_count <= 6 * exp.q, f"{cnots} CNOTs, q = {exp.q}")
    t, p = gd.circuit_permutation(res.base)
    # the backup ancilla starts in |0>: even basis indices of (A, B, c)
    check(np.array_equal(t[0::2], 2 * targets) and bool((p[0::2] == 1).all()), "protocol table mismatch")
    return Outcome(len(p3.circuit.gates) + len(res.expanded.gates), cnots)


def _pair_swap_instance(flags, targets) -> Outcome:
    xor = gd.emit_xor_protocol(flags)
    cnots = xor.expanded.metrics.nonlocal_cnot
    check(xor.xor_rank == gd.rank_toolkit(flags, "xor").lower, "xor rank disagrees with rank_toolkit")
    check(cnots == xor.cnot_count == 2 * xor.xor_rank, f"{cnots} CNOTs for xor rank {xor.xor_rank}")
    t, p = gd.circuit_permutation(xor.base)
    check(np.array_equal(t, targets) and bool((p == 1).all()), "xor protocol table mismatch")
    return Outcome(len(xor.expanded.gates), cnots)


def _check_rank_report(t: np.ndarray, kind: str, rep) -> None:
    check(rep.lower <= rep.upper, f"{kind}: interval [{rep.lower}, {rep.upper}]")
    if kind == "rank":
        recon = sum((np.outer(u, v) for u, v in rep.certificate), np.zeros(t.shape))
        check(rep.exact and np.abs(recon - t).max() <= 1e-9, "rank certificate does not sum to T")
    elif kind == "xor":
        recon = np.zeros(t.shape, dtype=np.int64)
        for u, v in rep.certificate:
            recon ^= np.outer(u, v)
        check(rep.exact and len(rep.certificate) == rep.lower and np.array_equal(recon, t), "xor certificate")
    elif kind == "binary":
        cover = np.zeros(t.shape, dtype=np.int64)
        for rows, cols in rep.certificate:
            cover[np.ix_(rows, cols)] += 1
        check(np.array_equal(cover, t) and len(rep.certificate) == rep.upper, "binary certificate")


def _rank_instance(t: np.ndarray) -> Outcome:
    exact = 0
    for kind in RANK_KINDS:
        rep = gd.rank_toolkit(t, kind, node_budget=RANK_NODE_BUDGET)
        _check_rank_report(t, kind, rep)
        if kind in ("binary", "nonneg"):
            exact += rep.exact
    return Outcome(0, 0, 2, exact)


def _perm_rank_slots(tiny: bool):
    """Stratified sizes: each party dimension 2..16 (and each shape) appears once per cycle."""
    if tiny:
        return [((2, 3), (1, 2), (2, 3))]
    return [
        ((2 + i, 2 + (7 * i) % 15), (1 + i % 4, 2 + (3 * i) % 5), (2 + i % 7, 2 + (3 * i) % 7))
        for i in range(15)
    ]


def _build_perm_rank(seed: int, workdir: Path, tiny: bool, pool: int):
    slots = _perm_rank_slots(tiny)
    it = iter(_seeds(seed, 3, pool * len(slots)))
    rng = np.random.default_rng([seed, 4])
    cycles = []
    for _ in range(pool):
        cycle = []
        for (da, db), flag_shape, rank_shape in slots:
            cp = random_permutation((da, db), next(it))
            u = np.round(np.real(cp.matrix())).astype(np.int64)
            cycle.append(instance("perm", _perm_instance, cp, u, da, db))
            flags = rng.integers(0, 2, size=flag_shape)
            fam = gd.pair_swap_family_unitary(flags)
            cycle.append(instance("pair-swap", _pair_swap_instance, flags, np.argmax(fam, axis=0)))
            cycle.append(instance("rank", _rank_instance, rng.integers(0, 2, size=rank_shape)))
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# integer-cli: the command line on matrix files


def _cli_instance(method: str, matrix_path: str, circuit_path: str) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["decompose", "--method", method, "-i", matrix_path, "-o", circuit_path])
        if code == 0:
            code = cli.main(["verify", "-u", matrix_path, "-c", circuit_path])
    text = out.getvalue()
    check(code == 0 and "verification OK" in text, f"{method} exit {code}: {text[-300:]}")
    gates = cnots = 0
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key == "gate_counts":
            gates = sum(int(item.split("=")[1]) for item in value.split(",") if item.strip())
        elif key == "nonlocal_cnot":
            cnots = int(value)
    return Outcome(gates, cnots)


def _build_cli_files(seed: int, workdir: Path, tiny: bool, pool: int):
    n = 2 if tiny else 8
    small = 2 if tiny else 4
    fam = (1, 2) if tiny else (3, 4)
    it = iter(_seeds(seed, 5, pool * 5))
    rng = np.random.default_rng([seed, 6])
    workdir.mkdir(parents=True, exist_ok=True)
    cycles = []
    for k in range(pool):
        files = {}

        def write(name, matrix, dims, kind):
            path = str(workdir / f"c{k}-{name}.json")
            codecs.save_matrix_file(path, matrix, dims, kind)
            files[name] = path

        write("haar", haar_unitary(n * n, next(it)), (n, n), "unitary")
        write("haar-small", haar_unitary(small * small, next(it)), (small, small), "unitary")
        write("perm", random_permutation((n, n), next(it)).matrix(), (n, n), "permutation")
        write("perm-small", random_permutation((small, small), next(it)).matrix(), (small, small), "permutation")
        flags = rng.integers(0, 2, size=fam)
        write("family", gd.pair_swap_family_unitary(flags).astype(complex), (2 * fam[0], fam[1]), "permutation")
        kinds = (
            ("sandwich", "haar"),
            ("bcu3", "haar"),
            ("std", "haar-small"),
            ("perm3", "perm"),
            ("std-cnot", "perm"),
            ("lemma7", "perm-small"),
            ("xor-protocol", "family"),
        )
        cycles.append(
            [
                instance(method, _cli_instance, method, files[src], str(workdir / f"c{k}-{method}.circuit.json"))
                for method, src in kinds
            ]
        )
    return cycles


def _build_integer_cli(seed: int, workdir: Path, tiny: bool, pool: int):
    """Each cycle: the integer path's 45 instances, then the 7 command-line calls."""
    return [
        ints + files
        for ints, files in zip(
            _build_perm_rank(seed, workdir, tiny, pool), _build_cli_files(seed, workdir, tiny, pool)
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense", _build_dense, pool=8, tail_pct=75),
        Workload("integer-cli", _build_integer_cli, pool=16, tail_pct=95),
    )
}
