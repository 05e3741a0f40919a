"""The traced layers of ``gatedecomp`` and the per-layer metrics made from them.

Layers are the package modules.  Each entry names the function through which
another layer (or the caller) enters it; `spans.Tracer` rebinds every
binding of it.  Per-layer metrics are reported per timed instance, so that a
run that completes more instances does not read as more work per layer.
"""

from __future__ import annotations

import os

from spans import Layer


def _strip(counters, args, kwargs, result):
    counters["strip.stripped"] += result.length - len(result.positions)
    counters["strip.length"] += result.length


def _full_over_bound(counters, args, kwargs, result):
    counters["multiparty.ratio_sum"] += result.full_count / result.bound
    counters["multiparty.results"] += 1


def _verify_error(counters, args, kwargs, result):
    counters["verify.max_error"] = max(counters["verify.max_error"], float(result.max_error))


def _flops(counters, args, kwargs, result):
    c = args[0]
    counters["apply_circuit.flops"] += 8 * c.space.total_dim**3 * len(c.gates)


def _q_over_bound(counters, args, kwargs, result):
    counters["pp_expansion.ratio_sum"] += result.q / min(result.bound_components)
    counters["pp_expansion.results"] += 1


def _encoded(counters, args, kwargs, result):
    counters["encode.bytes"] += os.path.getsize(args[0])


def _decoded(counters, args, kwargs, result):
    counters["decode.bytes"] += os.path.getsize(args[0])


LAYERS = (
    Layer("cli", "gatedecomp.cli", "main"),
    Layer("codecs.encode", "gatedecomp.codecs", "save_matrix_file", _encoded),
    Layer("codecs.encode", "gatedecomp.codecs", "save_circuit_file", _encoded),
    Layer("codecs.decode", "gatedecomp.codecs", "load_matrix_file", _decoded),
    Layer("codecs.decode", "gatedecomp.codecs", "load_circuit_file", _decoded),
    Layer("sandwich.decompose", "gatedecomp.sandwich", "decompose_sandwich", _strip),
    Layer("sandwich.decompose", "gatedecomp.sandwich", "decompose_bcu3"),
    Layer("sandwich.recursion", "gatedecomp.sandwich", "_sandwich_gates"),
    Layer("sandwich.cossin", "scipy.linalg", "cossin"),
    Layer("matcore.complete_isometry", "gatedecomp.matcore", "complete_isometry"),
    Layer("matcore.compress_rows", "gatedecomp.matcore", "compress_rows"),
    Layer("multiparty", "gatedecomp.multiparty", "decompose_multiparty", _full_over_bound),
    Layer("multiparty", "gatedecomp.multiparty", "decompose_4party", _full_over_bound),
    Layer("gateir.verify", "gatedecomp.gateir", "verify_decomposition", _verify_error),
    Layer("gateir.apply_circuit", "gatedecomp.gateir", "apply_circuit", _flops),
    Layer("gateir.gate_matrix", "gatedecomp.gateir", "gate_matrix"),
    Layer("gateir.classify_gate", "gatedecomp.gateir", "classify_gate"),
    Layer("gateir.circuit_permutation", "gatedecomp.gateir", "circuit_permutation"),
    Layer("schmidt.operator_schmidt", "gatedecomp.schmidt", "operator_schmidt"),
    Layer("permdecomp.decompose_perm3", "gatedecomp.permdecomp", "decompose_perm3"),
    Layer("permdecomp.find_sdr", "gatedecomp.permdecomp", "find_sdr"),
    Layer("stdgates", "gatedecomp.stdgates", "compile_to_standard"),
    Layer("stdgates", "gatedecomp.stdgates", "compile_perm_to_cnot_type"),
    Layer("protocols.pp_expansion", "gatedecomp.protocols", "pp_expansion", _q_over_bound),
    Layer("protocols.emit_backup_protocol", "gatedecomp.protocols", "emit_backup_protocol"),
    Layer("protocols.emit_xor_protocol", "gatedecomp.protocols", "emit_xor_protocol"),
    Layer("protocols.rank_toolkit", "gatedecomp.protocols", "rank_toolkit"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))

# per-layer metrics that are not a layer's calls or self time: name -> unit
EXTRA_UNITS = {
    "codecs.encode.bytes": "B",
    "codecs.decode.bytes": "B",
    "sandwich.identity_strip_frac": "ratio",
    "multiparty.full_count_over_bound": "ratio",
    "gateir.apply_circuit.flops_computed": "flop",
    "gateir.verify.max_error": "abs",
    "protocols.pp_expansion.q_over_bound": "ratio",
    "untraced_s": "s",
    "trace_overhead_frac": "ratio",
    "fail_frac": "ratio",
    "cnot_per_instance": "cnots",
    "rank_exact_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_times, counters, instances: int, traced_e2e_s: float) -> dict[str, float]:
    """Per-instance layer values, the derived ratios and ``untraced_s``.

    ``untraced_s`` is the traced end-to-end time per instance minus the sum
    of the layer self times per instance: the harness itself and code
    outside every traced boundary.
    """
    out = {}
    layer_self = 0.0
    for name in LAYER_NAMES:
        calls, own = self_times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / instances
        out[f"{name}.self_s"] = own / instances
        layer_self += own
    c = counters
    out["codecs.encode.bytes"] = c["encode.bytes"] / instances
    out["codecs.decode.bytes"] = c["decode.bytes"] / instances
    out["sandwich.identity_strip_frac"] = _ratio(c["strip.stripped"], c["strip.length"])
    out["multiparty.full_count_over_bound"] = _ratio(c["multiparty.ratio_sum"], c["multiparty.results"])
    out["gateir.apply_circuit.flops_computed"] = c["apply_circuit.flops"] / instances
    out["gateir.verify.max_error"] = c["verify.max_error"]
    out["protocols.pp_expansion.q_over_bound"] = _ratio(c["pp_expansion.ratio_sum"], c["pp_expansion.results"])
    out["untraced_s"] = (traced_e2e_s - layer_self) / instances
    return out
