"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_package()

import layers  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from gatedecomp.generators import haar_unitary  # noqa: E402

# every metric name the benchmark promises, end-to-end and per layer
NAMED_METRICS = (
    "setup_s throughput_ips latency_p50_s latency_tail_s fail_frac gates_per_instance "
    "cnot_per_instance rank_exact_frac peak_rss_mb "
    "matcore.complete_isometry.calls matcore.complete_isometry.self_s "
    "matcore.compress_rows.calls matcore.compress_rows.self_s "
    "sandwich.cossin.calls sandwich.cossin.self_s sandwich.recursion.self_s sandwich.identity_strip_frac "
    "multiparty.self_s multiparty.full_count_over_bound "
    "gateir.apply_circuit.calls gateir.apply_circuit.self_s gateir.gate_matrix.calls gateir.gate_matrix.self_s "
    "gateir.apply_circuit.flops_computed gateir.verify.self_s gateir.verify.max_error "
    "gateir.circuit_permutation.calls gateir.circuit_permutation.self_s "
    "gateir.classify_gate.calls gateir.classify_gate.self_s "
    "schmidt.operator_schmidt.calls schmidt.operator_schmidt.self_s "
    "permdecomp.decompose_perm3.calls permdecomp.decompose_perm3.self_s "
    "permdecomp.find_sdr.calls permdecomp.find_sdr.self_s "
    "protocols.pp_expansion.calls protocols.pp_expansion.self_s protocols.pp_expansion.q_over_bound "
    "protocols.emit_backup_protocol.calls protocols.emit_backup_protocol.self_s "
    "protocols.emit_xor_protocol.calls protocols.emit_xor_protocol.self_s "
    "protocols.rank_toolkit.calls protocols.rank_toolkit.self_s "
    "codecs.encode.calls codecs.encode.self_s codecs.encode.bytes "
    "codecs.decode.calls codecs.decode.self_s codecs.decode.bytes "
    "cli.self_s untraced_s trace_overhead_frac"
).split()


def _benchmark_json():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    return run.run_workload(request.param, seed=7, seconds=0.01, traced=True, tiny=True)


def test_every_named_metric_is_declared_with_its_unit():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(NAMED_METRICS) <= set(declared)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    result = run.run_workload("integer-cli", seed=7, seconds=0.01, traced=False, tiny=True)
    line = run.summary_line(result)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced):
    line = run.summary_line(traced)
    assert line["correct"], traced["errors"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == layers.per_layer_units()


def test_self_times_and_untraced_add_up_to_end_to_end(traced):
    per = traced["per_layer"]
    instances = traced["traced_instances"]
    e2e = traced["traced_e2e_s"]
    layer_self = sum(per[f"{name}.self_s"] for name in layers.LAYER_NAMES) * instances
    assert all(per[f"{name}.self_s"] >= -1e-9 for name in layers.LAYER_NAMES)
    assert per["untraced_s"] >= 0
    assert abs(layer_self + per["untraced_s"] * instances - e2e) <= 0.1 * e2e
    # the spans alone, harness span included, cover the independently timed instances
    assert abs(traced["span_self_s"] - e2e) <= 0.1 * e2e


def test_wrapped_names_are_restored_after_a_traced_run():
    tracer = spans.Tracer(layers.LAYERS)
    before = []
    for layer in layers.LAYERS:
        original, where = tracer.bindings(layer)
        before += [(ns, key, original) for ns, key in where]
    assert len(before) > len(layers.LAYERS)  # the package re-exports, so names have several bindings
    with tracer:
        assert all(getattr(ns, key) is not original for ns, key, original in before)
    run.run_workload("integer-cli", seed=7, seconds=0.01, traced=True, tiny=True)
    assert all(getattr(ns, key) is original for ns, key, original in before)


def test_a_wrong_circuit_fails_its_check_and_counts():
    u = haar_unitary(6, 1)
    other = workloads.gd.decompose_sandwich(haar_unitary(6, 2), 3, 2).circuit
    with pytest.raises(workloads.CheckFailed):
        workloads._dense_check(u, other)
    tally = run.Tally()
    tally.run(workloads.instance("wrong", workloads._dense_check, u, other))
    assert (tally.attempted, tally.failed, tally.ok) == (1, 1, 0)
    assert np.isfinite(tally.latencies[0])
