"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 infeasible input or precondition error.

The gate list in circuit files is in product order (first gate applied last);
``decompose`` verifies its own output before writing unless --no-verify is
given.  The default seed comes from the SANDWICH_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import codecs, generators
from .gateir import verify_decomposition
from .matcore import RECON_TOL, PreconditionError, read_binary, require_dense_dim
from .multiparty import decompose_4party, decompose_multiparty
from .permdecomp import ComplexPermutation, decompose_multiparty_perm, decompose_perm3
from .protocols import (
    emit_backup_protocol,
    emit_transfer_protocol,
    emit_xor_protocol,
    pair_swap_family_unitary,
    pp_expansion,
    rank_toolkit,
)
from .sandwich import decompose_2xd_aform, decompose_bcu3, decompose_sandwich
from .schmidt import operator_schmidt
from .stdgates import compile_perm_to_cnot_type, compile_to_standard

GEN_KINDS = ("haar", "perm", "swap", "example1", "example2", "sec6-swap-sandwich")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    return int(os.environ.get("SANDWICH_SEED", "0"))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process.

    It holds nothing read from the environment (the default seed is read
    when a command runs), so one parser serves every ``main`` call.
    """
    p = _Parser(prog="gatedecomp")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance matrix file")
    g.add_argument("--kind", choices=GEN_KINDS, required=True)
    g.add_argument("--dims", type=int, nargs="*", default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--blocks", type=str, default=None,
                   help="comma-separated diagonal 0/1 specs (example1)")
    g.add_argument("-o", "--output", required=True)

    d = sub.add_parser("decompose", help="decompose a matrix file into a circuit")
    d.add_argument("--method", choices=METHODS, required=True)
    d.add_argument("-i", "--input", required=True)
    d.add_argument("-o", "--output", required=True)
    d.add_argument("--tol", type=float, default=RECON_TOL)
    d.add_argument("--no-verify", action="store_true")

    v = sub.add_parser("verify", help="verify a circuit against a matrix file")
    v.add_argument("-u", "--unitary", required=True)
    v.add_argument("-c", "--circuit", required=True)
    v.add_argument("--tol", type=float, default=RECON_TOL)

    s = sub.add_parser("schmidt", help="operator-Schmidt rank across a cut")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("--cut", type=int, default=1,
                   help="number of leading parties on the A side")

    r = sub.add_parser("rank", help="rank analysis of a binary matrix file")
    r.add_argument("-i", "--input", required=True)
    r.add_argument("--kind", choices=("rank", "xor", "binary", "nonneg"), required=True)
    r.add_argument("-o", "--output", default=None,
                   help="write the report with its certificate as JSON")
    return p


def _parse_blocks(spec: str) -> np.ndarray:
    rows = []
    for part in spec.split(","):
        part = part.strip()
        if not part or any(ch not in "01" for ch in part):
            raise PreconditionError(f"bad block spec {part!r}; expected 0/1 strings")
        rows.append([int(ch) for ch in part])
    if len({len(r) for r in rows}) != 1:
        raise PreconditionError("all blocks must have the same length")
    return np.array(rows, dtype=np.int64)


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    kind = args.kind
    if kind == "haar":
        dims = tuple(args.dims or (2, 2))
        u = generators.haar_unitary(math.prod(dims), seed)
        codecs.save_matrix_file(args.output, u, dims, "unitary")
    elif kind == "perm":
        dims = tuple(args.dims or (2, 2))
        cp = generators.random_permutation(dims, seed)
        codecs.save_matrix_file(args.output, cp.matrix(), dims, "permutation")
    elif kind == "swap":
        dims = tuple(args.dims or (2, 2))
        if len(dims) != 2 or dims[0] != dims[1]:
            raise PreconditionError("swap needs --dims d d")
        codecs.save_matrix_file(
            args.output, generators.swap_unitary(dims[0]), dims, "permutation"
        )
    elif kind == "example1":
        if not args.blocks:
            raise PreconditionError("example1 needs --blocks")
        flags = _parse_blocks(args.blocks)
        u = pair_swap_family_unitary(flags)
        codecs.save_matrix_file(
            args.output, u.astype(complex), (2 * flags.shape[0], flags.shape[1]),
            "permutation",
        )
    elif kind == "example2":
        flags = generators.example2_flags()
        u = pair_swap_family_unitary(flags)
        codecs.save_matrix_file(args.output, u.astype(complex), (6, 3), "permutation")
    elif kind == "sec6-swap-sandwich":
        d = (args.dims or [3])[0]
        u, circuit, dims = generators.swap_conjugated_unitary(d, seed)
        codecs.save_matrix_file(args.output, u, dims, "unitary")
        codecs.save_circuit_file(args.output + ".circuit.json", circuit)
        print(f"companion circuit written to {args.output}.circuit.json")
    print(f"wrote {args.output}")
    return EXIT_OK


PERM_KINDS = ("permutation", "complexPermutation")
PLAIN_PERM = ("permutation",)


def _perm(mf: codecs.MatrixFile, kinds=PERM_KINDS) -> ComplexPermutation:
    """The file's permutation; PreconditionError unless the file is of one of ``kinds``."""
    if mf.kind not in kinds:
        raise PreconditionError(f"method requires a {' or '.join(kinds)} input, got {mf.kind!r}")
    return mf.value


def _xor_protocol(mf, out):
    """The XOR protocol of the flag matrix recovered from a pair-swap-family file."""
    da, db = mf.dims
    if da % 2:
        raise PreconditionError("family input must have even dA")
    u = read_binary(mf.matrix)
    i, b = np.ogrid[: da // 2, :db]
    flags = u[2 * i * db + b, (2 * i + 1) * db + b]
    if not np.array_equal(pair_swap_family_unitary(flags), u):
        raise PreconditionError("input is not of the flagged pair-swap family form")
    return emit_xor_protocol(flags).expanded, mf.matrix


def _aform(mf, out):
    da, db = mf.dims
    if da != 2:
        raise PreconditionError("the 3-A form requires dA = 2")
    return decompose_2xd_aform(mf.matrix, db), mf.matrix


def _multi(mf, out):
    if mf.kind not in PERM_KINDS:
        return decompose_multiparty(mf.matrix, mf.dims).circuit, mf.matrix
    if len(mf.dims) == 2:
        return decompose_perm3(mf.value).circuit, mf.matrix
    return decompose_multiparty_perm(mf.value), mf.matrix


def _std_cnot(mf, out):
    return compile_perm_to_cnot_type(_perm(mf, PLAIN_PERM)).circuit, mf.matrix


def _std(mf, out):
    if mf.kind in PERM_KINDS:  # the file's permutation, built once by its kind check
        return compile_to_standard(mf.value, *mf.dims, "complexPerm").circuit, mf.matrix
    return compile_to_standard(mf.matrix, *mf.dims, "general").circuit, mf.matrix


def _lemma7(mf, out):
    _perm(mf, PLAIN_PERM)
    perm = read_binary(mf.matrix)
    return emit_backup_protocol(perm, pp_expansion(perm, *mf.dims), *mf.dims).expanded, mf.matrix


def _transfer(mf, out):
    res = emit_transfer_protocol(mf.matrix, *mf.dims)
    codecs.save_matrix_file(out + ".target.json", res.embedded, res.embedded_dims, "unitary")
    print(f"embedded target written to {out}.target.json")
    return res.circuit, res.embedded


# method -> (bipartite_only, build): build(mf, out) gives the circuit and the matrix
# it must reproduce; a bipartite_only method needs a two-party file
_DECOMPOSE = {
    "sandwich": (True, lambda mf, out: (decompose_sandwich(mf.matrix, *mf.dims).circuit, mf.matrix)),
    "aform": (True, _aform),
    "bcu3": (True, lambda mf, out: (decompose_bcu3(mf.matrix, *mf.dims).circuit, mf.matrix)),
    "perm3": (True, lambda mf, out: (decompose_perm3(_perm(mf)).circuit, mf.matrix)),
    "multi": (False, _multi),
    "party4": (False, lambda mf, out: (decompose_4party(mf.matrix, mf.dims).circuit, mf.matrix)),
    "std": (True, _std),
    "std-cnot": (True, _std_cnot),
    "lemma7": (True, _lemma7),
    "xor-protocol": (True, _xor_protocol),
    "transfer": (True, _transfer),
}
METHODS = tuple(_DECOMPOSE)


def _cmd_decompose(args) -> int:
    mf = codecs.load_matrix_file(args.input)
    bipartite_only, build = _DECOMPOSE[args.method]
    if bipartite_only and len(mf.dims) != 2:
        raise PreconditionError(f"{args.method} expects a bipartite dims list")
    circuit, target = build(mf, args.output)

    if not args.no_verify:
        report = verify_decomposition(target, circuit, tol=args.tol, classify=False)
        if not report.passed:
            print(
                f"verification FAILED: max_error={report.max_error:.3e} "
                f"ancilla_restored={report.ancilla_restored}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
        print(f"verified: max_error={report.max_error:.3e}")
    codecs.save_circuit_file(args.output, circuit)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .gateir import recompute_metrics

    circuit = codecs.load_circuit_file(args.circuit)
    # refuse a space the dense check cannot hold before reading the target
    require_dense_dim(circuit.space.total_dim)
    mf = codecs.load_matrix_file(args.unitary)
    report = verify_decomposition(mf.matrix, circuit, tol=args.tol)
    stored = circuit.metrics
    consistent = recompute_metrics(circuit) == stored
    counts = ", ".join(f"{k}={v}" for k, v in report.gate_counts)
    print(f"metrics_ok     {consistent}")
    print(f"max_error      {report.max_error:.3e}")
    print(f"leakage        {report.leakage:.3e}")
    print(f"ancillas_ok    {report.ancilla_restored}")
    print(f"gate_counts    {counts}")
    print(f"nonlocal_cnot  {report.nonlocal_cnot}")
    for i, cl in enumerate(report.classifications):
        print(
            f"  gate {i}: {cl.kind} ctrlA={cl.controlled_from_a} "
            f"ctrlB={cl.controlled_from_b} schmidt={cl.schmidt_rank}"
        )
    if not report.passed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print("verification OK")
    return EXIT_OK


def _cmd_schmidt(args) -> int:
    mf = codecs.load_matrix_file(args.input)
    dims = mf.dims
    if not 1 <= args.cut < len(dims):
        raise PreconditionError(f"--cut must be in [1, {len(dims) - 1}]")
    da = math.prod(dims[: args.cut])
    db = math.prod(dims[args.cut :])
    dec = operator_schmidt(mf.matrix, da, db)
    print(f"schmidt_rank {dec.rank}")
    print("coefficients " + " ".join(f"{c:.12g}" for c in dec.coefficients))
    return EXIT_OK


def _certificate_obj(report):
    terms = []
    for item in report.certificate:
        u, v = item
        terms.append(
            {
                "left": [float(x) for x in np.asarray(u, dtype=float)],
                "right": [float(x) for x in np.asarray(v, dtype=float)],
            }
            if not isinstance(u, tuple)
            else {"rows": list(u), "cols": list(v)}
        )
    return terms


def _cmd_rank(args) -> int:
    b = codecs.load_binary_file(args.input)
    report = rank_toolkit(b, args.kind)
    if report.exact:
        print(f"{args.kind} {report.lower}")
    else:
        print(f"{args.kind} interval [{report.lower}, {report.upper}]")
    print(f"certificate_terms {len(report.certificate)}")
    if args.output:
        obj = {
            "kind": report.kind,
            "lower": report.lower,
            "upper": report.upper,
            "exact": report.exact,
            "certificate": _certificate_obj(report),
        }
        codecs.atomic_write(args.output, codecs.dumps_canonical(obj))
        print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    commands = {
        "gen": _cmd_gen,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
        "schmidt": _cmd_schmidt,
        "rank": _cmd_rank,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        # every package error (precondition, infeasible, degenerate rank-2,
        # codec, circuit) is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
