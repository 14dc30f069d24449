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
VVMF3_FORMAT environment variable.  Exit codes: 0 success, 1 invalid input
or a reader that closed the output pipe early.  `valuations` exits 0 whatever
its verdict: where the law applies it is proved for every row.

Each subcommand computes and checks its result before anything is written, so
invalid input never opens --output; then only the requested format is built.
Rationals become text in two places: `_fmt` for csv and table cells, and the
JSON encoder's `default` hook, which renders each Fraction just before the
encoder writes it.  JSON handlers pass library values (a series as its
exponent, its own coefficient tuple and its order), so no command holds its
rendered JSON.
`scan` reads each level's rows as (A, B, C, k0), with one index per row into
the level's one to three classifications, and builds no RepTriple.  Per level
and format it makes one %-template per classification, holding N and its
cells or JSON text (each % doubled); a level is one `map` of % over the
templates, indices and rows, written as one chunk.  `csv` streams level by
level in constant memory; `table` and `json` hold each level's rows and
indices, to size the columns and to write `count` first, but no rendered row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from .arith import rational_str
from .mde import build_mde, derived_basis, minimal_vector
from .qseries import QExpansion, eisenstein
from .reps import (
    Classification,
    RepTriple,
    _admissible,
    _classified,
    classify_triple,
    gamma02_family,
    gamma3_family,
    validate_triple,
)
from .valuation import DEFAULT_N_MAX, verify_formula

__all__ = ["EXIT_INVALID", "EXIT_OK", "FORMAT_ENV_VAR", "main", "run"]

FORMAT_ENV_VAR = "VVMF3_FORMAT"
FORMATS = ("json", "csv", "table")
EXIT_OK = 0
EXIT_INVALID = 1


class _CliError(ValueError):
    """Invalid input; message names the violated requirement."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


@dataclass
class _Result:
    """One computed result and a writer per format; only the requested
    writer runs, and it writes its text to the stream in chunks."""

    json: Callable[[TextIO], None]
    csv: Callable[[TextIO], None]
    table: Callable[[TextIO], None]


_ENCODER = json.JSONEncoder(indent=2, default=rational_str)


def _result(json_obj: Callable[[], object], header: tuple[str, ...],
            rows: Iterable[Sequence[object]], preamble: Sequence[str] = ()) -> _Result:
    """The writers of a generic result: the JSON encoder's chunks (as
    json.dump writes them), csv.writer's rows, and the ``preamble`` lines
    above the aligned rows."""
    cells = ([_fmt(v) for v in row] for row in rows)

    def write_csv(out: TextIO) -> None:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(cells)

    def write_table(out: TextIO) -> None:
        out.writelines(line + "\n" for line in chain(preamble, _aligned(header, cells)))

    return _Result(lambda out: out.writelines(chain(_ENCODER.iterencode(json_obj()), "\n")),
                   write_csv, write_table)


def _fmt(x: object) -> str:
    """A cell: "" for None, rationals of any size by rational_str, else str."""
    if x is None:
        return ""
    return rational_str(x) if type(x) in (int, Fraction) else str(x)


def _series(f: QExpansion) -> dict:
    """The JSON layout of QExpansion.to_json_dict over the series' own
    exponent and coefficient tuple, rendered by the encoder as it writes."""
    return {"exponent": f.exponent, "coeffs": f.coeffs, "order": f.order}


def _spaced(xs: Iterable[object]) -> str:
    """Rationals (or ints) joined by single spaces."""
    return " ".join(map(rational_str, xs))


def _label(t: RepTriple) -> str:
    return f"({t.A},{t.B},{t.C},{t.N})"


def _aligned(header: Sequence[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    cells = list(rows)
    widths = [max(map(len, column)) for column in zip(header, *cells)]
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


def _terms(args: argparse.Namespace, least: int) -> int:
    if args.terms < least:
        raise _CliError(f"--terms must be >= {least}, got {args.terms}")
    return args.terms


# The classification cells that `classify` (one per row) and `scan` (one per
# column) both print.
_CLASS_FIELDS = ("small_level_congruence", "level7_primitive", "gamma02_pattern_M",
                 "ubd_primes")


def _class_cells(cls: Classification) -> tuple[str, ...]:
    return (str(cls.congruence_by_small_level), str(cls.primitive_level7),
            _fmt(cls.gamma02_pattern), _spaced(cls.ubd_primes))


def _class_text(cls: Classification) -> str:
    return json.dumps(cls.to_json_dict(), indent=2).replace("\n", "\n      ")


def _pct(text: str) -> str:
    """text with each % doubled, to stand as itself in a %-template."""
    return text.replace("%", "%%")


def _csv_line(cells: Sequence[str]) -> str:
    """One row as csv.writer writes it, line terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def _json_template(n: int, cls: Classification) -> str:
    """One row of scan's json.dump(..., indent=2) output at level n with the
    classification cls, with %d for the triple's A, B, C and k0."""
    return ('    {\n      "triple": {\n        "A": %d,\n        "B": %d,\n        "C": %d,\n'
            '        "N": ' + str(n) + ',\n        "k0": %d\n      },\n      "classification": '
            + _pct(_class_text(cls)) + "\n    }")


def _cmd_coeffs(args: argparse.Namespace) -> _Result:
    t = _parse_triple(args.triple)
    terms = _terms(args, 0)
    comps = minimal_vector(build_mde(t, terms)).components

    def json_obj() -> dict:
        return {"triple": t.to_json_dict(), "terms": terms,
                "components": [_series(c) for c in comps]}

    rows = zip(range(terms + 1), *(c.coeffs for c in comps))
    header = ("n", "component_A", "component_B", "component_C")
    preamble = [
        f"triple {_label(t)}, weight {_fmt(t.k0)}, "
        f"exponents {', '.join(_fmt(c.exponent) for c in comps)}",
        "",
    ]
    return _result(json_obj, header, rows, preamble)


def _cmd_params(args: argparse.Namespace) -> _Result:
    t = _parse_triple(args.triple)
    sys_ = build_mde(t, 6)
    rows: list[tuple[str, object]] = [
        ("k0", t.k0),
        ("x0", sys_.x0),
        ("x4", sys_.x4),
        ("x6", sys_.x6),
        ("alpha4", sys_.alpha4),
        ("alpha6", sys_.alpha6),
        *((f"g{j}_head", _spaced(Fraction(v, 6 * t.N ** (3 - j)) for v in h[:7]))
          for j, h in ((2, sys_.h2), (1, sys_.h1), (0, sys_.h0))),
    ]

    return _result(lambda: {"triple": t.to_json_dict(), **dict(rows)},
                   ("field", "value"), rows)


def _cmd_valuations(args: argparse.Namespace) -> _Result:
    t = _parse_triple(args.triple)
    report = verify_formula(t, args.prime, _terms(args, 1))
    preamble = [
        f"triple {_label(t)}  prime {report.prime}  lead {report.lead}",
        f"case {report.case.to_json_dict()['case']}  delta {_fmt(report.case.delta)}  "
        f"verdict {report.verdict}",
        "",
    ]
    header = ("n", "observed", "predicted")
    return _result(report.to_json_dict, header, report.rows, preamble)


def _cmd_classify(args: argparse.Namespace) -> _Result:
    t = _parse_triple(args.triple)
    cls = classify_triple(t)
    rows: list[tuple[str, object]] = [
        ("triple", _label(t)),
        ("k0", t.k0),
        *zip(_CLASS_FIELDS, _class_cells(cls)),
        ("notes", "; ".join(cls.notes)),
    ]
    return _result(lambda: {"triple": t.to_json_dict(), "classification": cls.to_json_dict()},
                   ("field", "value"), rows)


def _cmd_scan(args: argparse.Namespace) -> _Result:
    lo = args.level
    hi = args.level_max if args.level_max is not None else lo
    if lo < 1 or hi < lo:
        raise _CliError(f"--level/--level-max must satisfy 1 <= N <= M, got {lo}, {hi}")

    header = ("N", "A", "B", "C", "k0", *_CLASS_FIELDS)

    def levels() -> Iterator[tuple[int, list[Classification], list[int], list[tuple[int, ...]]]]:
        for n in range(lo, hi + 1):
            rows = _admissible(n)
            yield (n, *_classified(n, rows), rows)

    def rendered(templates: list[str], idx: list[int], rows: list[tuple]) -> Iterator[str]:
        # One % per row: the template of the row's classification holds N and
        # its cells, and the row (A, B, C, k0) fills in the rest.
        return map(str.__mod__, map(templates.__getitem__, idx), rows)

    def write_csv(out: TextIO) -> None:
        out.write(_csv_line(header))
        for n, classes, idx, rows in levels():
            templates = [f"{n},%d,%d,%d,%d," + _pct(_csv_line(_class_cells(cls)))
                         for cls in classes]
            out.write("".join(rendered(templates, idx, rows)))

    def write_json(out: TextIO) -> None:
        held = list(levels())
        count = sum(len(rows) for *_, rows in held)
        out.write(f'{{\n  "level": {lo},\n  "level_max": {hi},\n  "count": {count},\n  "rows": [')
        sep = "\n"
        for n, classes, idx, rows in held:
            if rows:
                templates = [_json_template(n, cls) for cls in classes]
                out.write(sep + ",\n".join(rendered(templates, idx, rows)))
                sep = ",\n"
        out.write("\n  ]\n}\n" if count else "]\n}\n")

    def write_table(out: TextIO) -> None:
        held = [(n, [_class_cells(cls) for cls in classes], idx, rows)
                for n, classes, idx, rows in levels()]
        # N, A, B and C are >= 0, so a column's widest int is its largest.
        # k0 = 4 sigma/N - 2 lies in -1..9, as 3 <= sigma <= 3N - 6, so it is
        # never wider than its header.  Cells count only where some row has them.
        tops = [0] * 5
        distinct = set()
        for n, cells, idx, rows in held:
            if rows:
                tops = list(map(max, tops, (n, *map(max, zip(*rows)))))
                distinct.update(cells[i] for i in set(idx))
        widths = [max(len(h), len(str(v))) for h, v in zip(header, tops)]
        widths += [max(map(len, column)) for column in zip(header[5:], *distinct)]
        out.write("  ".join(map(str.ljust, header, widths)).rstrip() + "\n")
        ints = "".join(f"%-{w}d  " for w in widths[1:5])
        for n, cells, idx, rows in held:
            templates = [str(n).ljust(widths[0]) + "  " + ints
                         + _pct("  ".join(map(str.ljust, c, widths[5:])).rstrip()) + "\n"
                         for c in cells]
            out.write("".join(rendered(templates, idx, rows)))

    return _Result(write_json, write_csv, write_table)


def _cmd_family(args: argparse.Namespace) -> _Result:
    if args.family_kind == "gamma02":
        result = gamma02_family(args.M, args.A, args.x)
    else:
        result = gamma3_family(args.x0, args.x1, args.x2)
    t = result.triple
    rows: list[tuple[str, object]] = [
        ("family", result.family),
        ("params", " ".join(f"{k}={v}" for k, v in result.params.items())),
        ("exponents", _spaced(result.exponents)),
        ("triple", _label(t)),
        ("k0", t.k0),
        ("formula_level", result.formula_level),
        ("pattern_M", result.finite_image_pattern_m),
        *((f"chi({k})", _fmt(v)) for k, v in result.chi_exponents.items()),
    ]
    return _result(result.to_json_dict, ("field", "value"), rows)


def _cmd_eisenstein(args: argparse.Namespace) -> _Result:
    f = eisenstein(args.weight, _terms(args, 0))
    return _result(lambda: {"weight": args.weight, "series": _series(f)},
                   ("n", "coefficient"), enumerate(f.coeffs))


def _cmd_basis(args: argparse.Namespace) -> _Result:
    t = _parse_triple(args.triple)
    sys_ = build_mde(t, _terms(args, 0))
    basis = derived_basis(sys_, minimal_vector(sys_))
    groups = (("f0", basis.f0.components), ("df0", basis.first), ("d2f0", basis.second))

    def json_obj() -> dict:
        return {
            "triple": t.to_json_dict(),
            **{label: [_series(c) for c in comps] for label, comps in groups},
            "matrix": basis.matrix,
            "det": basis.determinant,
            "vandermonde": basis.vandermonde,
        }

    def rows() -> Iterator[tuple[str, object]]:
        for label, comps in groups:
            for part, f in zip("ABC", comps):
                yield f"{label}.{part}.exponent", _fmt(f.exponent)
                yield f"{label}.{part}.coeffs", _spaced(f.coeffs)
        for i, row in enumerate(basis.matrix):
            yield f"matrix.row{i}", _spaced(row)
        yield "det", basis.determinant
        yield "vandermonde", basis.vandermonde

    return _result(json_obj, ("field", "value"), rows())


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help=f"output format (default: ${FORMAT_ENV_VAR} or table)")
    common.add_argument("--output", default=None, help="write output to this path")
    triple = argparse.ArgumentParser(add_help=False, parents=[common])
    triple.add_argument("--triple", required=True)

    parser = _Parser(prog="vvmf3", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", parents=[triple],
                       help="minimal vector coefficients via the recursion")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("params", parents=[triple],
                       help="differential equation data for a triple")
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("valuations", parents=[triple],
                       help="observed vs predicted p-adic valuations")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--terms", type=int, default=DEFAULT_N_MAX)
    p.set_defaults(handler=_cmd_valuations)

    p = sub.add_parser("classify", parents=[triple],
                       help="representation classification and UBD primes")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("scan", parents=[common],
                       help="enumerate and classify all triples at a level")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--level-max", type=int, default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("family", help="induced-character families")
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

    p = sub.add_parser("basis", parents=[triple],
                       help="minimal vector, its derived forms, and det(B)")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(handler=_cmd_basis)

    return parser


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
        result = args.handler(args)
    except ValueError as exc:  # _CliError and the library's input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    write = getattr(result, fmt)
    if not args.output:
        write(sys.stdout)
        return EXIT_OK
    try:
        with open(args.output, "w") as out:
            write(out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`vvmf3 scan | head -1`).  Point stdout at
        # devnull so that the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INVALID
    sys.exit(code)
