"""Command-line front end.

Subcommands: ``bounds`` (evaluate bound formulas at a point), ``generate``
(run a builder and write a verified array), ``verify`` (check coverage claims
of an array file), ``compare`` (emit bound-comparison sweep CSVs, with the
named presets ``1a`` and ``1b``).

Exit codes are a stable contract: 0 success or property verified, 1 claimed
property violated, 2 usage or validation failure, 3 iteration cap hit.
Outputs are pure functions of flags, seed, and input files.  ``generate``
times the builder call and prints that time on stderr only; report files omit
timing so repeated runs are byte-identical.  ``PCAFORGE_SEED`` supplies the
default seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import artifact_io, bounds, construct, coverage
from .core import PcaParams, validate
from .errors import CapacityExceeded, DomainError, IterationCap, PcaForgeError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_ITERATION_CAP = 3

# Most axis values one `compare --values` range may expand to.
MAX_SWEEP_VALUES = 10**6

_ALGORITHMS = {
    "mt": construct.build_pca_moser_tardos,
    "apca": construct.build_apca_randomized,
    "cyclic": construct.build_apca_cyclic,
    "frobenius": construct.build_apca_frobenius,
    "concat": construct.build_concat,
    "derand": construct.build_apca_derandomized,
}


def _default_seed() -> int:
    raw = os.environ.get("PCAFORGE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"PCAFORGE_SEED={raw!r} is not an integer") from None


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcaforge",
        description="Partial and almost-partial covering arrays: bounds, builders, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate bound formulas at one parameter point")
    p_bounds.add_argument("--t", type=int, required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--v", type=int, required=True)
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--epsilon", type=float, default=0.0)
    p_bounds.add_argument("--all", action="store_true", help="evaluate every formula")
    p_bounds.add_argument(
        "--formula", action="append", default=[],
        help="formula label (repeatable); e.g. union, lll, eq8, apca",
    )
    p_bounds.add_argument(
        "--eq8-variant", choices=("printed", "with-t"), default="printed",
        help="evaluate the development bound as printed or with the factor t in the log",
    )

    p_gen = sub.add_parser("generate", help="build a verified array and write it out")
    p_gen.add_argument("--alg", choices=sorted(_ALGORITHMS), required=True)
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--v", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=None,
                       help="coverage target; defaults to v^t for full-coverage builders")
    p_gen.add_argument("--epsilon", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.add_argument("--report", type=Path, default=None)
    p_gen.add_argument("--base", type=int, choices=(0, 1), default=0)

    p_verify = sub.add_parser("verify", help="check coverage claims of an array file")
    p_verify.add_argument("--in", dest="infile", type=Path, required=True)
    p_verify.add_argument("--t", type=int, required=True)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--epsilon", type=float, default=0.0)
    p_verify.add_argument("--q", type=float, default=None)
    p_verify.add_argument("--defects-csv", type=Path, default=None)

    p_cmp = sub.add_parser("compare", help="emit a bound-comparison sweep CSV")
    p_cmp.add_argument("--figure", choices=("1a", "1b"), default=None,
                       help="named preset sweep")
    p_cmp.add_argument("--axis", choices=("m", "k"), default=None)
    p_cmp.add_argument("--values", type=str, default=None,
                       help="axis values as start:stop[:step] (stop inclusive) or comma list")
    p_cmp.add_argument("--t", type=int, default=None)
    p_cmp.add_argument("--k", type=int, default=0)
    p_cmp.add_argument("--v", type=int, default=None)
    p_cmp.add_argument("--m", type=int, default=0)
    p_cmp.add_argument("--epsilon", type=float, default=0.0)
    p_cmp.add_argument("--formulas", type=str, default="eq6,eq8")
    p_cmp.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    return parser


def _cmd_bounds(args: argparse.Namespace) -> int:
    if not (args.all or args.formula):
        print("error: pass --all or at least one --formula", file=sys.stderr)
        return EXIT_USAGE
    validate(PcaParams(t=args.t, k=args.k, v=args.v, m=args.m, epsilon=args.epsilon))
    if args.all:
        formulas = [f for f in bounds.FORMULAS if f.in_all]
    else:
        formulas = [bounds.lookup_formula(label) for label in args.formula]
    rows = []
    for formula in formulas:
        if formula.label == "eq8" and args.eq8_variant == "with-t":
            formula = bounds.lookup_formula("eq8-t")
        try:
            result = formula.evaluate(args.t, args.k, args.v, args.m, args.epsilon)
            n_rows = "" if formula.informational else str(result.n_rows)
            rows.append((formula.friendly, f"{result.real_bound:.6g}", n_rows, formula.label))
        except PcaForgeError as exc:
            rows.append((formula.friendly, "-", "-", f"skipped: {type(exc).__name__}"))
    width = max(len(r[0]) for r in rows)
    print(f"{'formula':<{width}}  {'real_bound':>12}  {'n_rows':>8}  source")
    for name, real, n_rows, source in rows:
        print(f"{name:<{width}}  {real:>12}  {n_rows:>8}  {source}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    m = args.m
    if m is None:
        if args.alg in ("cyclic", "frobenius", "derand"):
            m = args.v**args.t
        else:
            print("error: --m is required for this algorithm", file=sys.stderr)
            return EXIT_USAGE
    params = PcaParams(t=args.t, k=args.k, v=args.v, m=m, epsilon=args.epsilon, seed=seed)
    start = time.perf_counter()
    report = _ALGORITHMS[args.alg](params)
    elapsed = time.perf_counter() - start
    claims = {"t": args.t, "m": m}
    if args.epsilon:
        claims["epsilon"] = args.epsilon
    artifact_io.write_array(report.array, args.out, base=args.base, claims=claims)
    if args.report is not None:
        artifact_io.write_report_json(report, params, args.report)
    print(
        f"wrote {report.n_rows} x {report.array.cols} array to {args.out} "
        f"(iterations={report.iterations}, verified {report.verifier})"
    )
    print(f"elapsed: {elapsed * 1000:.1f} ms", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # the defects CSV and the apca claim of a nonzero epsilon both read --m
    if args.m is None and (args.defects_csv is not None or args.epsilon != 0):
        flag = "--defects-csv" if args.defects_csv is not None else "--epsilon"
        print(f"error: {flag} needs --m", file=sys.stderr)
        return EXIT_USAGE
    array, _header = artifact_io.read_array(args.infile)
    profile = coverage.coverage_profile(array, args.t)
    # Every flag is checked before the first line goes out.
    defects = None if args.m is None else profile.defective(args.m)
    allowed = profile.allowed(args.epsilon)
    completeness = None if args.q is None else profile.completeness(args.q)
    print(f"rows={array.rows} cols={array.cols} v={array.v} t={args.t}")
    print(f"min_count={profile.min_count}")
    exit_code = EXIT_OK
    if defects is not None:
        print(f"defects(m={args.m})={len(defects)}")
        if args.defects_csv is not None:
            artifact_io.write_defects_csv(defects, array.v, args.t, args.defects_csv)
        if args.epsilon > 0:
            ok = len(defects) <= allowed
            print(f"apca(m={args.m}, epsilon={args.epsilon}): "
                  f"{'pass' if ok else 'FAIL'} "
                  f"({len(defects)} defective, {allowed} allowed)")
            if not ok:
                exit_code = EXIT_VIOLATED
        elif not defects:
            print(f"pca(m={args.m}): pass")
        else:
            witness = defects[0]  # the lex-first defective t-set, as is_pca reports it
            print(f"pca(m={args.m}): FAIL at t-set {witness.tset} covering {witness.count}")
            exit_code = EXIT_VIOLATED
    if completeness is not None:
        print(f"completeness(q={args.q})={completeness:.6g}")
    return exit_code


def _parse_values(text: str) -> list[int]:
    try:
        if "," in text or ":" not in text:
            return [int(x) for x in text.split(",") if x.strip()]
        parts = [int(x) for x in text.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError
        values = range(parts[0], parts[1] + 1, *parts[2:])  # a zero step raises too
    except ValueError:
        raise DomainError(
            f"bad values {text!r}: expected start:stop[:step] or integers separated by commas"
        ) from None
    if values[MAX_SWEEP_VALUES:]:  # len() overflows on ranges past sys.maxsize
        raise CapacityExceeded(f"values {text!r} are more than {MAX_SWEEP_VALUES}")
    return list(values)


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.figure is not None and (args.axis is not None or args.values is not None):
        print("error: --figure conflicts with custom sweep flags", file=sys.stderr)
        return EXIT_USAGE
    if args.figure == "1a":
        t, k, v = 6, 20, 4
        values = list(range(v**t - 6 * v + 1, v**t + 1))
        result = bounds.sweep(["eq6", "eq8"], "m", values, t=t, k=k, v=v)
    elif args.figure == "1b":
        t, v, m = 6, 4, 4**6 - 4
        values = list(range(12, 61, 4))
        result = bounds.sweep(["eq6", "eq8"], "k", values, t=t, v=v, m=m)
    else:
        if args.axis is None or args.values is None or args.t is None or args.v is None:
            print("error: custom sweeps need --axis, --values, --t, --v", file=sys.stderr)
            return EXIT_USAGE
        values = _parse_values(args.values)
        result = bounds.sweep(
            [f.strip() for f in args.formulas.split(",") if f.strip()],
            args.axis,
            values,
            t=args.t,
            k=args.k,
            v=args.v,
            m=args.m,
            epsilon=args.epsilon,
        )
    if args.out is None:
        sys.stdout.write(artifact_io.sweep_csv_text(result))
    else:
        artifact_io.write_sweep_csv(result, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bounds": _cmd_bounds,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except IterationCap as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ITERATION_CAP
    except PcaForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
