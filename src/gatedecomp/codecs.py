"""File formats: matrices, circuits, binary matrices, permutation tables.

All writers emit *canonical* JSON: fixed key order, compact separators, and
floats printed with 17 significant digits, so encode -> decode -> encode is
byte-identical.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .gateir import (
    Ancilla,
    Circuit,
    CnotGate,
    ControlledGate,
    Gate,
    GenericGate,
    LocalGate,
    Metrics,
    PartySpace,
    TwoLevelGate,
    controlled,
)
from .matcore import EXACT_TOL, RECON_TOL, PreconditionError, as_matrix, checked_dims, is_unitary
from .matcore import read_binary
from .permdecomp import ComplexPermutation, table_outputs
from .protocols import BinaryMatrix

MATRIX_KINDS = ("unitary", "permutation", "complexPermutation", "binary")


class CodecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    s = "%.17g" % float(x)
    if "e" not in s and "E" not in s and "." not in s and "n" not in s:
        s += ".0"
    return s


# one [re, im] pair per code 2 * (re is whole) + (im is whole): "%.17g" prints
# a whole |x| < 1e17 with no "." or exponent, where "%.1f" adds the ".0" that
# _format_float appends; every other finite value prints "." or "e" itself
_PAIR_FORMATS = ("[%.17g,%.17g]", "[%.17g,%.1f]", "[%.1f,%.17g]", "[%.1f,%.1f]")


@dataclass(frozen=True)
class _Formatted:
    """Canonical JSON text made ahead of ``dumps_canonical``, written as is."""

    text: str


def _matrix_json(m) -> _Formatted:
    """A complex matrix as rows of ``[re, im]`` pairs, with ``_format_float``'s tokens."""
    return _matrices_json(np.asarray(m, dtype=complex)[None])[0]


def _matrices_json(stack) -> list[_Formatted]:
    """``_matrix_json`` of each matrix of a (k, n, m) stack, from one format pass.

    One template of ``%`` formats is built from which entries are whole,
    with the matrices separated by "|", which no number prints; the float
    array fills it in one pass, and the text is split at the separators.
    """
    x = np.ascontiguousarray(stack, dtype=complex)
    x = x.view(float).reshape(*x.shape, 2)
    if not np.isfinite(x).all():
        raise CodecError("non-finite values cannot be serialized")
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e17)
    codes = (2 * whole[..., 0] + whole[..., 1]).tolist()
    pair = _PAIR_FORMATS.__getitem__
    template = "|".join(
        "[" + ",".join("[" + ",".join(map(pair, row)) + "]" for row in matrix) + "]"
        for matrix in codes
    )
    return [_Formatted(text) for text in (template % tuple(x.ravel().tolist())).split("|")]


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _emit(obj, out, {})
    return "".join(out)


def _emit(obj, out: list[str], quoted: dict[str, str]) -> None:
    """Append the canonical JSON of ``obj`` to ``out``.

    The exact types of a circuit object are tested first, and every other
    object goes through ``_emit_other``.  ``quoted`` maps each string already
    written in this ``dumps_canonical`` call, dict key or value, to its JSON
    text, so a circuit of many gates quotes its few distinct strings once.
    """
    kind = type(obj)
    if kind is _Formatted:
        out.append(obj.text)
    elif kind is dict:
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            k = str(k)
            out.append(quoted.get(k) or quoted.setdefault(k, json.dumps(k)))
            out.append(":")
            _emit(v, out, quoted)
        out.append("}")
    elif kind is list or kind is tuple:
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out, quoted)
        out.append("]")
    elif kind is str:
        out.append(quoted.get(obj) or quoted.setdefault(obj, json.dumps(obj)))
    elif kind is int:
        out.append(str(obj))
    else:
        _emit_other(obj, out, quoted)


def _emit_other(obj, out: list[str], quoted: dict[str, str]) -> None:
    """``_emit`` of an object of no type it tests: None, a bool, a float, a
    numpy scalar, or a subclass of int, str, list, tuple or dict."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise CodecError("non-finite values cannot be serialized")
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        _emit(list(obj), out, quoted)
    elif isinstance(obj, dict):
        _emit(dict(obj), out, quoted)
    else:
        raise CodecError(f"cannot serialize {type(obj).__name__}")


def atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _loads(text: str, path: str):
    """Parse ``text``; no file of these formats holds a JSON boolean.

    ``complex`` and ``operator.index`` take ``true`` and ``false`` as 1 and
    0, so a boolean is refused here, wherever it stands.  Only a text that
    spells ``true`` or ``false`` somewhere is walked for one.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"{path}: malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    if "true" in text or "false" in text:
        where = _find_bool(obj, "")
        if where is not None:
            raise CodecError(f"{path}: unexpected boolean at {where or 'top level'}")
    return obj


def _find_bool(obj, where: str) -> str | None:
    """The location of the first boolean in a parsed JSON tree, or None."""
    if isinstance(obj, bool):
        return where
    if isinstance(obj, dict):
        items = ((f"{where}.{k}" if where else k, v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for at, v in items:
        found = _find_bool(v, at)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, eq=False)
class MatrixFile:
    """A loaded matrix file; ``value`` is what its kind check built: the
    ``ComplexPermutation`` of a (complex) permutation file, the
    ``BinaryMatrix`` of a binary file, None for a unitary file."""

    kind: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    value: ComplexPermutation | BinaryMatrix | None


def _obj_to_matrix(obj, path: str) -> np.ndarray:
    try:
        rows = [[complex(re, im) for re, im in row] for row in obj]
    except (TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"{path}: bad matrix payload: {exc}") from exc
    return np.array(rows, dtype=complex)


def validate_matrix_kind(m: np.ndarray, dims, kind: str):
    """Check (and for permutations, snap) the matrix against its declared dims and kind.

    Returns ``(matrix, value)``, ``value`` as in ``MatrixFile``.  The dims
    pass ``checked_dims`` and give the matrix's side, so the writer refuses
    what the reader would.  A unitary passes on the library's input rule,
    ``is_unitary`` to ``RECON_TOL``.
    """
    n = math.prod(checked_dims(dims))
    if m.shape != (n, n):
        raise CodecError(f"matrix is {m.shape}, dims imply {(n, n)}")
    if kind not in MATRIX_KINDS:
        raise CodecError(f"unknown matrix kind {kind!r}")
    if kind == "binary":
        return m, BinaryMatrix.from_array(m)
    if kind == "unitary":
        if not is_unitary(m, RECON_TOL):
            raise CodecError(f"matrix fails unitarity validation at {RECON_TOL:g}")
        return m, None
    if kind == "permutation":
        try:
            read_binary(m)
        except PreconditionError as exc:
            raise CodecError(f"permutation file entries must be within {EXACT_TOL:g} of 0 or 1") from exc
        m = np.round(np.real(m)).astype(complex)  # keeps -0.0, so a file saves to its own bytes
    return m, ComplexPermutation.from_matrix(m, dims)


def save_matrix_file(path: str, m, dims, kind: str) -> None:
    m, _ = validate_matrix_kind(as_matrix(m), dims, kind)
    obj = {"kind": kind, "dims": [int(d) for d in dims], "matrix": _matrix_json(m)}
    atomic_write(path, dumps_canonical(obj))


def _load(path: str, build, what: str):
    """Parse the JSON file at ``path`` with ``build(obj, path)``.

    Any malformed content ends in a ``CodecError`` that names the path.
    """
    with open(path, encoding="utf-8") as fh:
        obj = _loads(fh.read(), path)
    try:
        return build(obj, path)
    except CodecError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CodecError(f"{path}: malformed {what}: {type(exc).__name__}: {exc}") from exc


def load_matrix_file(path: str) -> MatrixFile:
    return _load(path, _matrix_file_from_obj, "matrix file")


def _matrix_file_from_obj(obj, path: str) -> MatrixFile:
    for key in ("kind", "dims", "matrix"):
        if key not in obj:
            raise CodecError(f"{path}: missing field {key!r}")
    dims = checked_dims(obj["dims"])
    m = _obj_to_matrix(obj["matrix"], path)
    try:
        m, value = validate_matrix_kind(m, dims, obj["kind"])
    except CodecError as exc:
        raise CodecError(f"{path}: {exc}") from exc
    return MatrixFile(obj["kind"], dims, m, value)


# ---------------------------------------------------------------------------
# binary matrices


def save_binary_file(path: str, b: BinaryMatrix) -> None:
    obj = {
        "rows": b.rows,
        "cols": b.cols,
        "bits": "".join(str(x) for x in b.bits),
    }
    atomic_write(path, dumps_canonical(obj))


def load_binary_file(path: str) -> BinaryMatrix:
    return _load(path, _binary_from_obj, "binary matrix")


def _binary_from_obj(obj, path: str) -> BinaryMatrix:
    if "bits" in obj:
        bits = tuple(int(c) for c in obj["bits"])
        return BinaryMatrix(*checked_dims((obj["rows"], obj["cols"])), bits)
    mf = _matrix_file_from_obj(obj, path)
    if mf.kind != "binary":
        raise CodecError(f"{path}: not a binary matrix file")
    return mf.value


# ---------------------------------------------------------------------------
# permutation tables


def save_table_file(path: str, cp: ComplexPermutation) -> None:
    if len(cp.dims) != 2:
        raise CodecError("table files are bipartite")
    da, db = cp.dims
    rows = []
    for a in range(da):
        for b in range(db):
            t = cp.targets[a * db + b]
            rows.append([a, b, t // db, t % db])
    obj = {"dims": [da, db], "table": rows}
    atomic_write(path, dumps_canonical(obj))


def load_table_file(path: str) -> ComplexPermutation:
    return _load(path, _table_from_obj, "table")


def _table_from_obj(obj, path: str) -> ComplexPermutation:
    da, db = checked_dims(obj["dims"])
    out_a, out_b = table_outputs(obj["table"], da, db)
    targets = tuple(int(t) for t in (out_a * db + out_b).reshape(-1))
    return ComplexPermutation((da, db), targets, (1.0,) * (da * db))


# ---------------------------------------------------------------------------
# circuits


def _space_to_obj(space: PartySpace):
    return {
        "parties": [{"name": n, "dim": d} for n, d in space.parties],
        "ancillas": [
            {"name": a.name, "host": a.host, "dim": a.dim, "init": a.init}
            for a in space.ancillas
        ],
    }


def _space_from_obj(obj) -> PartySpace:
    """The space; ``PartySpace`` refuses a party dim below 1 or an ancilla init outside its dim."""
    return PartySpace(
        parties=tuple((p["name"], operator.index(p["dim"])) for p in obj["parties"]),
        ancillas=tuple(
            Ancilla(a["name"], a["host"], operator.index(a["dim"]), operator.index(a["init"]))
            for a in obj.get("ancillas", [])
        ),
    )


# per gate kind: the builder, then each JSON field in file order as
# "name:codec"; the builder takes the fields as keyword arguments
_GATE_FIELDS = {
    cls.kind: (build, [field.split(":") for field in spec.split()])
    for cls, build, spec in (
        (ControlledGate, controlled, "controls:axes targets:axes branches:branches"),
        (LocalGate, LocalGate, "axes:axes matrix:matrix"),
        (TwoLevelGate, TwoLevelGate,
         "axis_a:int pair_a:axes axis_b:int pair_b:axes matrix:matrix"),
        (CnotGate, CnotGate, "control_axis:int control_pair:axes target_axis:int target_pair:axes"),
        (GenericGate, GenericGate, "axes:axes cut:int matrix:matrix"),
    )
}


def _axes_from_obj(v, path: str) -> tuple[int, ...]:
    return tuple(operator.index(x) for x in v)


def _branches_from_obj(v, path: str) -> dict:
    out = {_axes_from_obj(br["control"], path): _obj_to_matrix(br["matrix"], path) for br in v}
    if len(out) != len(v):
        raise CodecError(f"{path}: a control tuple has more than one branch")
    return out


def _branches_to_obj(g) -> list:
    """One branch per control tuple; the palette is formatted once for all of them."""
    texts = _matrices_json(g.palette)
    return [
        {"control": list(k), "matrix": texts[j]}
        for k, j in zip(np.ndindex(g.index.shape), g.index.flat)
    ]


# each encoder takes the gate and the field name
_ENCODE = {
    "axes": lambda g, name: list(getattr(g, name)),
    "int": getattr,
    "matrix": lambda g, name: _matrix_json(getattr(g, name)),
    "branches": lambda g, name: _branches_to_obj(g),
}

_DECODE = {
    "axes": _axes_from_obj,
    "int": lambda v, path: operator.index(v),
    "matrix": _obj_to_matrix,
    "branches": _branches_from_obj,
}


def _gate_to_obj(g: Gate):
    kind = getattr(g, "kind", None)
    if kind not in _GATE_FIELDS:
        raise CodecError(f"cannot serialize gate {type(g).__name__}")
    _, fields = _GATE_FIELDS[kind]
    return {"kind": kind, **{name: _ENCODE[codec](g, name) for name, codec in fields}}


def _gate_from_obj(obj, path: str) -> Gate:
    kind = obj.get("kind")
    if kind not in _GATE_FIELDS:
        raise CodecError(f"{path}: unknown gate kind {kind!r}")
    build, fields = _GATE_FIELDS[kind]
    return build(**{name: _DECODE[codec](obj[name], path) for name, codec in fields})


def circuit_to_obj(c: Circuit):
    """The circuit as an object for :func:`dumps_canonical`, not a plain JSON tree.

    Matrix and branch payloads are canonical JSON text made ahead (one
    format pass per array or palette), which only ``dumps_canonical``
    writes out.
    """
    # gate order note: gates[0] is the leftmost product factor (applied last)
    met = {
        "gate_counts": {k: v for k, v in c.metrics.gate_counts},
        "nonlocal_cnot": c.metrics.nonlocal_cnot,
        "ebit_estimate": c.metrics.ebit_estimate,
    }
    return {
        "space": _space_to_obj(c.space),
        "gate_order": "product",
        "gates": [_gate_to_obj(g) for g in c.gates],
        "metrics": met,
    }


def save_circuit_file(path: str, c: Circuit) -> None:
    atomic_write(path, dumps_canonical(circuit_to_obj(c)))


def _circuit_from_obj(obj, path: str) -> Circuit:
    if obj.get("gate_order") != "product":
        raise CodecError(f"{path}: gate_order must be 'product', got {obj.get('gate_order')!r}")
    if not isinstance(obj["gates"], list):
        raise CodecError(f"{path}: 'gates' must be a list")
    space = _space_from_obj(obj["space"])
    gates = tuple(_gate_from_obj(g, path) for g in obj["gates"])
    met_obj = obj.get("metrics") or {}
    ebit = met_obj.get("ebit_estimate")
    counts = tuple((k, operator.index(v)) for k, v in met_obj.get("gate_counts", {}).items())
    metrics = Metrics(counts, operator.index(met_obj.get("nonlocal_cnot", 0)), ebit)
    return Circuit(space, gates, metrics)


def load_circuit_file(path: str) -> Circuit:
    return _load(path, _circuit_from_obj, "circuit")
