"""Command-line front end: compute, verify, classify, scan.

Subcommands and their CSV columns:

  coeffs      n, component_A, component_B, component_C
  params      field, value
  valuations  n, observed, predicted
  classify    field, value
  scan        N, A, B, C, k0, small_level_congruence, level7_primitive,
              gamma02_pattern_M, ubd_primes
  family      field, value
  eisenstein  n, coefficient
  basis       field, value

Output format defaults to `table`; override with --format or the
VVMF3_FORMAT environment variable.  Exit codes: 0 success, 1 invalid input,
2 formula mismatch reported by `valuations`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence, TextIO

from .arith import rational_str
from .mde import MDESystem, build_mde, component_series, derived_basis, minimal_vector
from .qseries import QExpansion, eisenstein
from .reps import (
    CharacterData,
    RepTriple,
    classify_triple,
    enumerate_level,
    gamma02_family,
    gamma3_family,
    validate_triple,
)
from .valuation import verify_formula

__all__ = ["EXIT_INVALID", "EXIT_MISMATCH", "EXIT_OK", "FORMAT_ENV_VAR", "main", "run"]

FORMAT_ENV_VAR = "VVMF3_FORMAT"
FORMATS = ("json", "csv", "table")
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2


class _CliError(ValueError):
    """Invalid input; message names the violated requirement."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


@dataclass
class _Result:
    """One result: the JSON object, and the rows that CSV and the table share.

    The table prints ``preamble`` lines above the aligned rows.
    """

    json_obj: object
    header: tuple[str, ...]
    rows: list[tuple]
    preamble: list[str] = field(default_factory=list)


def _fmt(x: object) -> str:
    if isinstance(x, Fraction):
        return rational_str(x)
    if isinstance(x, float):
        return "inf" if x == float("inf") else str(x)
    return "" if x is None else str(x)


def _aligned(header: Sequence[str], rows: Sequence[Sequence[object]]) -> Iterator[str]:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    for row in [header, *cells]:
        yield "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()


def _parse_triple(text: str) -> RepTriple:
    parts = text.split(",")
    if len(parts) != 4:
        raise _CliError(f"--triple wants A,B,C,N (four integers), got {text!r}")
    try:
        a, b, c, n = (int(p) for p in parts)
    except ValueError:
        raise _CliError(f"--triple wants integers, got {text!r}") from None
    return validate_triple(a, b, c, n)


def _series_rows(label: str, f: QExpansion) -> list[tuple[str, str]]:
    return [
        (f"{label}.exponent", _fmt(f.exponent)),
        (f"{label}.coeffs", " ".join(rational_str(c) for c in f.coeffs)),
    ]


def _cmd_coeffs(args: argparse.Namespace) -> tuple[_Result, int]:
    t = _parse_triple(args.triple)
    if args.terms < 0:
        raise _CliError(f"--terms must be >= 0, got {args.terms}")
    mv = minimal_vector(build_mde(t, args.terms))
    comps = mv.components
    json_obj = {
        "triple": t.to_json_dict(),
        "terms": args.terms,
        "components": [c.to_json_dict() for c in comps],
    }
    rows = [
        (n, comps[0].coeffs[n], comps[1].coeffs[n], comps[2].coeffs[n])
        for n in range(args.terms + 1)
    ]
    header = ("n", "component_A", "component_B", "component_C")
    preamble = [
        f"triple ({t.A},{t.B},{t.C},{t.N}), weight {_fmt(t.k0)}, "
        f"exponents {', '.join(_fmt(c.exponent) for c in comps)}",
        "",
    ]
    return _Result(json_obj, header, rows, preamble), EXIT_OK


def _param_rows(sys_: MDESystem) -> list[tuple[str, object]]:
    head = 6
    rows: list[tuple[str, object]] = [
        ("k0", sys_.triple.k0),
        ("x0", sys_.x0),
        ("x4", sys_.x4),
        ("x6", sys_.x6),
        ("alpha4", sys_.alpha4),
        ("alpha6", sys_.alpha6),
    ]
    for label, g in (("g2", sys_.g2), ("g1", sys_.g1), ("g0", sys_.g0)):
        rows.append(
            (f"{label}_head", " ".join(rational_str(c) for c in g.coeffs[: head + 1]))
        )
    return rows


def _cmd_params(args: argparse.Namespace) -> tuple[_Result, int]:
    t = _parse_triple(args.triple)
    sys_ = build_mde(t, 6)
    rows = _param_rows(sys_)
    json_obj = {"triple": t.to_json_dict()}
    json_obj.update({k: _fmt(v) if isinstance(v, Fraction) else v for k, v in rows})
    return _Result(json_obj, ("field", "value"), rows), EXIT_OK


def _cmd_valuations(args: argparse.Namespace) -> tuple[_Result, int]:
    t = _parse_triple(args.triple)
    if args.terms < 1:
        raise _CliError(f"--terms must be >= 1, got {args.terms}")
    report = verify_formula(t, args.prime, args.terms)
    json_obj = report.to_json_dict()
    header = ("n", "observed", "predicted")
    rows = list(report.rows)
    preamble = [
        f"triple ({t.A},{t.B},{t.C},{t.N})  prime {report.prime}  lead {report.lead}",
        f"case {json_obj['case']['case']}  delta {_fmt(report.case.delta)}  "
        f"verdict {report.verdict}",
        "",
    ]
    code = (
        EXIT_MISMATCH
        if report.applicable and report.verdict != "formula-verified"
        else EXIT_OK
    )
    return _Result(json_obj, header, rows, preamble), code


def _cmd_classify(args: argparse.Namespace) -> tuple[_Result, int]:
    t = _parse_triple(args.triple)
    cls = classify_triple(t)
    json_obj = {"triple": t.to_json_dict(), "classification": cls.to_json_dict()}
    rows: list[tuple[str, object]] = [
        ("triple", f"({t.A},{t.B},{t.C},{t.N})"),
        ("k0", t.k0),
        ("small_level_congruence", cls.congruence_by_small_level),
        ("level7_primitive", cls.primitive_level7),
        ("gamma02_pattern_M", cls.gamma02_pattern),
        ("ubd_primes", " ".join(str(p) for p in cls.ubd_primes)),
        ("notes", "; ".join(cls.notes)),
    ]
    return _Result(json_obj, ("field", "value"), rows), EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> tuple[_Result, int]:
    lo = args.level
    hi = args.level_max if args.level_max is not None else lo
    if lo < 1 or hi < lo:
        raise _CliError(f"--level/--level-max must satisfy 1 <= N <= M, got {lo}, {hi}")
    header = (
        "N",
        "A",
        "B",
        "C",
        "k0",
        "small_level_congruence",
        "level7_primitive",
        "gamma02_pattern_M",
        "ubd_primes",
    )
    rows: list[tuple] = []
    json_rows = []
    for level in range(lo, hi + 1):
        for t in enumerate_level(level):
            cls = classify_triple(t)
            rows.append(
                (
                    t.N,
                    t.A,
                    t.B,
                    t.C,
                    t.k0,
                    cls.congruence_by_small_level,
                    cls.primitive_level7,
                    cls.gamma02_pattern,
                    " ".join(str(p) for p in cls.ubd_primes),
                )
            )
            json_rows.append(
                {"triple": t.to_json_dict(), "classification": cls.to_json_dict()}
            )
    json_obj = {"level": lo, "level_max": hi, "count": len(rows), "rows": json_rows}
    return _Result(json_obj, header, rows), EXIT_OK


def _cmd_family(args: argparse.Namespace) -> tuple[_Result, int]:
    if args.family_kind == "gamma02":
        result = gamma02_family(CharacterData.gamma02(args.M, args.A, args.x))
    else:
        result = gamma3_family(CharacterData.gamma3(args.x0, args.x1, args.x2))
    json_obj = result.to_json_dict()
    t = result.triple
    params = result.params.to_json_dict()
    rows: list[tuple[str, object]] = [
        ("family", result.family),
        ("params", " ".join(f"{k}={v}" for k, v in params.items() if k != "family")),
        ("exponents", " ".join(_fmt(e) for e in result.exponents)),
        ("triple", f"({t.A},{t.B},{t.C},{t.N})"),
        ("k0", t.k0),
        ("formula_level", result.formula_level),
        ("pattern_M", result.finite_image_pattern_m),
    ]
    rows.extend((f"chi({k})", _fmt(v)) for k, v in result.chi_exponents.items())
    return _Result(json_obj, ("field", "value"), rows), EXIT_OK


def _cmd_eisenstein(args: argparse.Namespace) -> tuple[_Result, int]:
    if args.terms < 0:
        raise _CliError(f"--terms must be >= 0, got {args.terms}")
    f = eisenstein(args.weight, args.terms)
    json_obj = {"weight": args.weight, "series": f.to_json_dict()}
    header = ("n", "coefficient")
    rows = [(n, f.coeffs[n]) for n in range(args.terms + 1)]
    return _Result(json_obj, header, rows), EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> tuple[_Result, int]:
    t = _parse_triple(args.triple)
    if args.terms < 0:
        raise _CliError(f"--terms must be >= 0, got {args.terms}")
    sys_ = build_mde(t, args.terms)
    basis = derived_basis(sys_, minimal_vector(sys_))
    json_obj = {
        "triple": t.to_json_dict(),
        "f0": [c.to_json_dict() for c in basis.f0.components],
        "df0": [c.to_json_dict() for c in basis.first],
        "d2f0": [c.to_json_dict() for c in basis.second],
        "matrix": [[rational_str(v) for v in row] for row in basis.matrix],
        "det": rational_str(basis.determinant),
        "vandermonde": rational_str(basis.vandermonde),
    }
    rows: list[tuple[str, object]] = []
    for label, comps in (
        ("f0", basis.f0.components),
        ("df0", basis.first),
        ("d2f0", basis.second),
    ):
        for part, series in zip("ABC", comps):
            rows.extend(_series_rows(f"{label}.{part}", series))
    for i, row in enumerate(basis.matrix):
        rows.append((f"matrix.row{i}", " ".join(rational_str(v) for v in row)))
    rows.append(("det", basis.determinant))
    rows.append(("vandermonde", basis.vandermonde))
    return _Result(json_obj, ("field", "value"), rows), EXIT_OK


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help=f"output format (default: ${FORMAT_ENV_VAR} or table)")
    common.add_argument("--output", default=None, help="write output to this path")

    parser = _Parser(prog="vvmf3", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="minimal vector coefficients via the recursion")
    p.add_argument("--triple", required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("params", parents=[common],
                       help="differential equation data for a triple")
    p.add_argument("--triple", required=True)
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("valuations", parents=[common],
                       help="observed vs predicted p-adic valuations")
    p.add_argument("--triple", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--terms", type=int, default=100)
    p.set_defaults(handler=_cmd_valuations)

    p = sub.add_parser("classify", parents=[common],
                       help="representation classification and UBD primes")
    p.add_argument("--triple", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("scan", parents=[common],
                       help="enumerate and classify all triples at a level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--level-max", type=int, default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("family", parents=[common],
                       help="induced-character families")
    fam = p.add_subparsers(dest="family_kind", required=True)
    g02 = fam.add_parser("gamma02", parents=[common])
    g02.add_argument("--M", type=int, required=True)
    g02.add_argument("--A", type=int, required=True)
    g02.add_argument("--x", type=int, required=True)
    g02.set_defaults(handler=_cmd_family)
    g3 = fam.add_parser("gamma3", parents=[common])
    g3.add_argument("--x0", type=int, required=True)
    g3.add_argument("--x1", type=int, required=True)
    g3.add_argument("--x2", type=int, required=True)
    g3.set_defaults(handler=_cmd_family)

    p = sub.add_parser("eisenstein", parents=[common], help="Eisenstein q-expansion")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_eisenstein)

    p = sub.add_parser("basis", parents=[common],
                       help="minimal vector, its derived forms, and det(B)")
    p.add_argument("--triple", required=True)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_basis)

    return parser


def _render(result: _Result, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        json.dump(result.json_obj, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([_fmt(v) for v in row])
    else:
        for line in chain(result.preamble, _aligned(result.header, result.rows)):
            out.write(line + "\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    fmt = args.format or os.environ.get(FORMAT_ENV_VAR) or "table"
    if fmt not in FORMATS:
        print(f"error: {FORMAT_ENV_VAR} must be one of {FORMATS}, got {fmt!r}",
              file=sys.stderr)
        return EXIT_INVALID

    try:
        result, code = args.handler(args)
    except ValueError as exc:  # _CliError and the library's input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if not args.output:
        _render(result, fmt, sys.stdout)
        return code
    try:
        with open(args.output, "w") as out:
            _render(result, fmt, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


def main() -> None:
    sys.exit(run())
