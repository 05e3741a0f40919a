"""Benchmark harness for gatedecomp: decompose + check, end to end and per layer.

Run one workload from the repository root:

    python3 bench/run.py --workload dense --seed 1 --seconds 58 --trace 0

Each run is one process and one closed-loop client calling the library (or
``gatedecomp.cli.main``) in-process.  Inputs are made from ``--seed`` before
timing starts.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over the same inputs and prints the
per-layer metrics.  The last line of standard output is one JSON object;
a result file with the machine record goes to ``bench/results/``.  The exit
code is 0 only when every instance passed its check.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 5
# Matrices here are at most 256 wide: a second OpenBLAS thread gave no
# speed-up on 2 cores but doubled the run-to-run spread of the multiparty runs.
BLAS_THREADS = 1
MAX_ERRORS_KEPT = 5

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "gates_per_instance": "gates",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_package():
    """Import gatedecomp from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gatedecomp

    if Path(gatedecomp.__file__).resolve().parent != src / "gatedecomp":
        raise ImportError(f"gatedecomp imported from {gatedecomp.__file__}, not from {src}")
    return gatedecomp


# ---------------------------------------------------------------------------
# machine record


def _openblas(module, suffix: str) -> dict:
    """Library and thread count of the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        return {"library": Path(path).name, "config": get_config().decode(), "threads": get_threads()}
    return {"library": None}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _openblas(numpy, "64_"),
        "blas_scipy": _openblas(scipy, ""),
        "git_commit": _git_commit(),
        "seed": seed,
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Outcomes of the instances run in one mode (untraced or traced)."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ok = self.attempted = self.failed = 0
        self.gates = self.cnots = self.rank_queries = self.rank_exact = 0
        self.errors: list[str] = []
        self.kinds: list[str] = []
        self.cycle_starts: list[int] = []  # index of each timed cycle's first latency

    def run(self, instance, tracer=None) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = instance.run()
            else:
                with tracer.root("bench.instance"):
                    out = instance.run()
        except Exception:  # a failing instance is counted and reported; the run goes on
            out = None
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(traceback.format_exc(limit=6))
        self.latencies.append(time.perf_counter() - t0)
        self.kinds.append(instance.kind)
        if out is not None:
            self.ok += 1
            self.gates += out.gates
            self.cnots += out.cnots
            self.rank_queries += out.rank_queries
            self.rank_exact += out.rank_exact

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: MAX_ERRORS_KEPT - len(self.errors)]


def timed_loop(cycles, seconds: float, tracer=None):
    """Run whole cycles until ``seconds`` have passed.

    With a tracer, each input cycle runs twice: untraced, then traced; the
    ratio of the two passes is the tracing overhead.
    Returns (untraced tally, traced tally, untraced wall s, traced wall s, passes).
    """
    tallies = (Tally(), Tally())
    wall = [0.0, 0.0]
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        cycle = cycles[(k // 2 if tracer is not None else k) % len(cycles)]
        tallies[traced].cycle_starts.append(len(tallies[traced].latencies))
        t0 = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            for instance in cycle:
                tallies[traced].run(instance, tracer if traced else None)
        wall[traced] += time.perf_counter() - t0
        k += 1
        if time.perf_counter() - start >= seconds and (tracer is None or k % 2 == 0):
            return tallies[0], tallies[1], wall[0], wall[1], k


def cycle_stats(tally: Tally, tail_pct: float) -> list[tuple[float, float, int]]:
    """(median latency, tail latency, instances beyond the tail) of each timed cycle."""
    import numpy as np

    ends = tally.cycle_starts[1:] + [len(tally.latencies)]
    rows = []
    for first, end in zip(tally.cycle_starts, ends):
        lat = np.asarray(tally.latencies[first:end])
        tail = float(np.percentile(lat, tail_pct))
        rows.append((float(np.median(lat)), tail, int((lat > tail).sum())))
    return rows


def end_to_end(tally: Tally, wall: float, rows: list[tuple[float, float, int]], setup_s: float) -> dict:
    """Latencies are taken per cycle and averaged over the run's cycles.

    A shared host's speed can drift by a third over tens of seconds.  Pooled
    over a run, the slowest instances come mostly from its slow phases, so a
    run-wide percentile moves with the share of the run spent in them; a
    cycle's percentile ranks instances that ran at nearly the same speed.
    """
    return {
        "setup_s": setup_s,
        "throughput_ips": tally.ok / wall,
        "latency_p50_s": statistics.fmean(r[0] for r in rows),
        "latency_tail_s": statistics.fmean(r[1] for r in rows),
        "gates_per_instance": tally.gates / max(tally.ok, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One run of one workload; returns the full result record."""
    load_package()
    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    import_s = time.perf_counter() - PROCESS_T0
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    pool = 2 if tiny else wl.pool
    warm = Tally()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cycles = wl.build(seed, workdir, tiny, pool)
            warm.run(cycles[0][0])
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = spans.Tracer(layers.LAYERS) if traced else None
        plain, tr, plain_wall, tr_wall, passes = timed_loop(cycles, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    total = Tally()
    for t in (warm, plain, tr):
        total.absorb(t)
    ok = plain.ok + tr.ok
    rows = cycle_stats(plain, wl.tail_pct)
    e2e = end_to_end(plain, plain_wall, rows, setup_s)
    result = {
        "workload": name,
        "seconds": seconds,
        "tiny": tiny,
        "machine": machine_record(seed, traced),
        "attempted": total.attempted,
        "failed": total.failed,
        "errors": total.errors,
        "passes": passes,
        "distinct_cycles": len(cycles),
        "instances_per_cycle": len(cycles[0]),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "end_to_end": e2e,
        "latency_tail_pct": wl.tail_pct,
        "latency_samples": len(plain.latencies),
        "latency_tail_beyond": sum(r[2] for r in rows),
        "timed_cycles": len(rows),
        "cycle_stats": rows,
        "latencies": [[k, x] for k, x in zip(plain.kinds, plain.latencies)],
        "fail_frac": total.failed / total.attempted,
        "cnot_per_instance": (plain.cnots + tr.cnots) / max(ok, 1),
        "rank_exact_frac": (plain.rank_exact + tr.rank_exact) / max(plain.rank_queries + tr.rank_queries, 1),
    }
    if traced:
        self_times = tracer.self_times()
        per_layer = layers.layer_metrics(self_times, tracer.counters, tr.attempted, sum(tr.latencies))
        per_layer["trace_overhead_frac"] = tr_wall / plain_wall - 1.0
        for key in ("fail_frac", "cnot_per_instance", "rank_exact_frac"):
            per_layer[key] = result[key]
        result["per_layer"] = per_layer
        result["traced_instances"] = tr.attempted
        result["traced_e2e_s"] = sum(tr.latencies)
        result["span_self_s"] = sum(own for _, own in self_times.values())
    return result


def summary_line(result: dict) -> dict:
    """The final stdout object: end-to-end metrics untraced, per-layer metrics traced."""
    import layers

    if "per_layer" in result:
        values, units = result["per_layer"], layers.per_layer_units()
    else:
        values, units = result["end_to_end"], E2E_UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"error: cannot import gatedecomp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for err in result["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(summary_line(result)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    # fixed before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.exit(main())
