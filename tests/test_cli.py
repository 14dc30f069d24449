"""End-to-end command-line behavior: formats, exit codes, output routing."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf3.cli as cli
import vvmf3.reps as reps
from conftest import brute_force_level, oracle_g_series
from vvmf3.cli import EXIT_INVALID, EXIT_OK, FORMAT_ENV_VAR, run
from vvmf3.arith import rational_str
from vvmf3.mde import build_mde, derived_basis, minimal_vector
from vvmf3.qseries import QExpansion, eisenstein
from vvmf3.reps import classify_triple, enumerate_level, validate_triple


def test_help_exits_zero(capsys) -> None:
    assert run(["--help"]) == EXIT_OK
    assert "coeffs" in capsys.readouterr().out


def test_coeffs_table_default(capsys) -> None:
    assert run(["coeffs", "--triple", "1,2,4,7", "--terms", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "component_A" in out
    assert "weight 2" in out
    assert "-3" in out


def test_coeffs_json_round_trip(capsys) -> None:
    assert run(["coeffs", "--triple", "1,2,4,7", "--terms", "5",
                "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["triple"]["N"] == 7 and data["terms"] == 5
    t = validate_triple(1, 2, 4, 7)
    expected = minimal_vector(build_mde(t, 5)).components
    decoded = [QExpansion.from_json_dict(d) for d in data["components"]]
    assert list(decoded) == list(expected)


def test_params_json(capsys) -> None:
    assert run(["params", "--triple", "1,2,4,7", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["k0"] == 2
    assert (data["x0"], data["x4"], data["x6"]) == (14, -140, 680)
    assert data["alpha4"] == "-5/252"
    assert data["alpha6"] == "85/74088"
    assert data["g2_head"].split()[:3] == ["2", "24", "72"]


@pytest.mark.parametrize("triple", ["1,2,4,7", "2,3,7,8", "1,2,6,9", "1,3,7,11"])
def test_params_heads_match_oracle(triple, capsys) -> None:
    # Levels 7, 8, 9 and 11: each g_j head is h_j over 6N^(3-j), term by term.
    g0, g1, g2 = oracle_g_series(validate_triple(*map(int, triple.split(","))), 6)
    expected = {"g0_head": g0, "g1_head": g1, "g2_head": g2}
    assert run(["params", "--triple", triple, "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert {k: [Fraction(v) for v in data[k].split()] for k in expected} == expected
    assert run(["params", "--triple", triple, "--format", "table"]) == EXIT_OK
    fields = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert {k: [Fraction(v) for v in fields[k].split()] for k in expected} == expected


def test_valuations_verified_exit_zero(capsys) -> None:
    assert run(["valuations", "--triple", "1,3,7,11", "--prime", "11",
                "--terms", "20", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "formula-verified"
    assert data["rows"][0] == {"n": 1, "observed": -1, "predicted": -1}


def test_valuations_inapplicable_exit_zero(capsys) -> None:
    # No covered case: reported, and still a success.
    assert run(["valuations", "--triple", "1,2,4,7", "--prime", "7",
                "--terms", "5"]) == EXIT_OK
    assert "inapplicable" in capsys.readouterr().out


def test_valuations_invalid_prime(capsys) -> None:
    assert run(["valuations", "--triple", "1,3,7,11", "--prime", "4",
                "--terms", "5"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_classify_table(capsys) -> None:
    assert run(["classify", "--triple", "1,2,4,7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "level7_primitive" in out and "True" in out


def test_scan_json_counts(capsys) -> None:
    assert run(["scan", "--level", "7", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 5
    assert [r["triple"]["A"] for r in data["rows"]] == [0, 0, 0, 1, 3]

    expected = len(enumerate_level(7)) + len(enumerate_level(8))
    assert run(["scan", "--level", "7", "--level-max", "8",
                "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == expected


def test_scan_csv(capsys) -> None:
    assert run(["scan", "--level", "7", "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:5] == ["N", "A", "B", "C", "k0"]
    assert len(rows) == 6
    assert all(r[0] == "7" for r in rows[1:])


def test_scan_csv_and_json_agree(capsys) -> None:
    argv = ["scan", "--level", "1", "--level-max", "30"]
    assert run(argv + ["--format", "csv"]) == EXIT_OK
    header, *csv_rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert run(argv + ["--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == len(csv_rows) == len(data["rows"]) > 0

    def cell(v) -> str:
        return "" if v is None else str(v)

    for row, obj in zip(csv_rows, data["rows"]):
        t, cls = obj["triple"], obj["classification"]
        assert dict(zip(header, row)) == {
            "N": str(t["N"]), "A": str(t["A"]), "B": str(t["B"]), "C": str(t["C"]),
            "k0": str(t["k0"]),
            "small_level_congruence": cell(cls["congruence_by_small_level"]),
            "level7_primitive": cell(cls["primitive_level7"]),
            "gamma02_pattern_M": cell(cls["gamma02_pattern"]),
            "ubd_primes": " ".join(map(str, cls["ubd_primes"])),
        }


def test_scan_csv_builds_no_json(capsys, monkeypatch) -> None:
    def fail(*args):
        raise AssertionError("JSON text built for csv output")

    monkeypatch.setattr(cli, "_class_text", fail)
    assert run(["scan", "--level", "7", "--format", "csv"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6
    # The patched function is what json output uses.
    with pytest.raises(AssertionError, match="JSON text"):
        run(["scan", "--level", "7", "--format", "json"])


def _scan_reference(lo: int, hi: int, fmt: str) -> str:
    """scan's output built the plain way: every 3-subset filtered, each triple
    validated and classified on its own, then json.dumps, csv.writer, ljust."""
    triples = [validate_triple(a, b, c, n) for n in range(lo, hi + 1)
               for a, b, c in brute_force_level(n)]
    pairs = [(t, classify_triple(t)) for t in triples]
    if fmt == "json":
        rows = [{"triple": t.to_json_dict(), "classification": c.to_json_dict()}
                for t, c in pairs]
        data = {"level": lo, "level_max": hi, "count": len(rows), "rows": rows}
        return json.dumps(data, indent=2) + "\n"
    header = ["N", "A", "B", "C", "k0", "small_level_congruence", "level7_primitive",
              "gamma02_pattern_M", "ubd_primes"]
    rows = [[str(t.N), str(t.A), str(t.B), str(t.C), str(t.k0),
             str(c.congruence_by_small_level), str(c.primitive_level7),
             "" if c.gamma02_pattern is None else str(c.gamma02_pattern),
             " ".join(map(str, c.ubd_primes))] for t, c in pairs]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [header, *rows])


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("lo, hi", [(1, 2), (1, 12), (5, 8), (60, 66), (95, 100)])
def test_scan_output_matches_reference(lo, hi, fmt, capsys) -> None:
    # 1..2 has no triples; level 12 has k0 < 0 and cells wider than their
    # header; level 7 has notes; 60..66 has ubd_primes and gamma02 patterns;
    # 95..100 is the top of the benchmark's range.
    argv = ["scan", "--level", str(lo), "--level-max", str(hi), "--format", fmt]
    assert run(argv) == EXIT_OK
    out = capsys.readouterr().out
    # Lines, not one string: pytest reports the first differing line cheaply.
    assert out.splitlines(keepends=True) == _scan_reference(lo, hi, fmt).splitlines(keepends=True)
    if (lo, hi) == (1, 2):
        assert '"rows": []' in out if fmt == "json" else len(out.splitlines()) == 1


def test_scan_escapes_percent_in_classification_text(capsys, monkeypatch) -> None:
    # scan bakes each classification's text into a %-template; the level-7
    # primitive note reaches the JSON rows, and its %, %d and %% must come
    # out as themselves in every format.
    note = "100% sure: %d rows, %% left"
    monkeypatch.setattr(reps, "PRIMITIVE_NOTE", note)
    outs = {}
    for fmt in ("json", "csv", "table"):
        assert run(["scan", "--level", "7", "--format", fmt]) == EXIT_OK
        outs[fmt] = capsys.readouterr().out
        assert outs[fmt].splitlines(keepends=True) == \
            _scan_reference(7, 7, fmt).splitlines(keepends=True)
    assert outs["json"].count(json.dumps(note)) == 2


def test_scan_csv_streams(monkeypatch, tmp_path) -> None:
    # As `vvmf3 scan --level 1 --level-max 100000 --format csv | head -1`:
    # csv writes each level as it enumerates it, so a reader that leaves
    # after the header stops the scan at once.  A scan that enumerated ahead
    # of its writes would meet the spy's limit first.
    levels = []

    def spy(n):
        levels.append(n)
        if len(levels) > 20:
            raise AssertionError("scan --format csv enumerates levels ahead of its writes")
        return reps._admissible(n)

    class Closed(io.StringIO):
        # A pipe whose reader left after the first write.
        def write(self, text):
            if self.tell():
                raise BrokenPipeError
            return super().write(text)

        def fileno(self):
            return fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(cli, "_admissible", spy)
        monkeypatch.setattr(sys, "stdout", Closed())
        monkeypatch.setattr(sys, "argv", ["vvmf3", "scan", "--level", "1",
                                          "--level-max", "100000", "--format", "csv"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
    finally:
        os.close(fd)
    assert exc.value.code == EXIT_INVALID
    assert levels == list(range(1, len(levels) + 1)) and len(levels) <= 3


def test_scan_invalid_range(capsys) -> None:
    assert run(["scan", "--level", "7", "--level-max", "3"]) == EXIT_INVALID
    assert run(["scan", "--level", "0"]) == EXIT_INVALID


def test_family_gamma02_json(capsys) -> None:
    assert run(["family", "gamma02", "--M", "4", "--A", "1", "--x", "0",
                "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["params"] == {"family": "gamma02", "M": 4, "A": 1, "x": 0}
    assert data["triple"]["N"] == data["formula_level"]


def test_family_options_follow_the_kind(capsys, tmp_path) -> None:
    # --format and --output belong to the family kind; given before it they
    # are rejected instead of silently falling back to the defaults.
    args = ["gamma02", "--M", "4", "--A", "1", "--x", "0"]
    assert run(["family", "--format", "json"] + args) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "family.json"
    assert run(["family", "--output", str(out)] + args) == EXIT_INVALID
    assert not out.exists()
    assert run(["family"] + args + ["--format", "json", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["params"]["family"] == "gamma02"


def test_family_rejection_exit_one(capsys) -> None:
    assert run(["family", "gamma02", "--M", "4", "--A", "1", "--x", "1"]) \
        == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    assert run(["family", "gamma02", "--M", "4", "--A", "2", "--x", "0"]) \
        == EXIT_INVALID
    assert capsys.readouterr().err == "error: gcd(A, M) must be 1, got gcd(2, 4)\n"


def test_family_gamma3_table(capsys) -> None:
    assert run(["family", "gamma3", "--x0", "0", "--x1", "0", "--x2", "0"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma3" in out and "pattern_M" in out
    assert "(0,1,2,3)" in out


def test_eisenstein_json(capsys) -> None:
    assert run(["eisenstein", "--weight", "4", "--terms", "3",
                "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["series"]["coeffs"] == ["1", "240", "2160", "6720"]
    assert run(["eisenstein", "--weight", "3", "--terms", "3"]) == EXIT_INVALID


def test_basis_json(capsys) -> None:
    assert run(["basis", "--triple", "1,2,4,7", "--terms", "8",
                "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["det"] == "6/343"
    assert data["vandermonde"] == "6/343"
    assert len(data["matrix"]) == 3 and data["matrix"][0][0] == "1"
    assert len(data["f0"]) == 3


def test_format_env_var(capsys, monkeypatch) -> None:
    monkeypatch.setenv(FORMAT_ENV_VAR, "json")
    assert run(["eisenstein", "--weight", "4", "--terms", "1"]) == EXIT_OK
    json.loads(capsys.readouterr().out)

    monkeypatch.setenv(FORMAT_ENV_VAR, "xml")
    assert run(["eisenstein", "--weight", "4", "--terms", "1"]) == EXIT_INVALID
    assert FORMAT_ENV_VAR in capsys.readouterr().err


def test_explicit_format_overrides_env(capsys, monkeypatch) -> None:
    monkeypatch.setenv(FORMAT_ENV_VAR, "json")
    assert run(["eisenstein", "--weight", "4", "--terms", "1",
                "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "n,coefficient"


def test_output_file(tmp_path, capsys) -> None:
    target = tmp_path / "out.json"
    assert run(["coeffs", "--triple", "1,2,4,7", "--terms", "2",
                "--format", "json", "--output", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["terms"] == 2


def test_json_output_holds_no_copy_of_itself(tmp_path) -> None:
    # The encoder renders each coefficient as it writes it, so the run's peak
    # stays below the size of its own output, which a result held as
    # rendered strings would exceed.  build_mde first fills the Eisenstein
    # cache, which outlives the run.
    target = tmp_path / "coeffs.json"
    build_mde(validate_triple(1, 3, 7, 11), 400)
    tracemalloc.start()
    try:
        assert run(["coeffs", "--triple", "1,3,7,11", "--terms", "400",
                    "--format", "json", "--output", str(target)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < target.stat().st_size


def test_encoder_renders_rationals_in_its_hook() -> None:
    big = Fraction(10**5000 + 1, 7)
    assert "".join(cli._ENCODER.iterencode(big)) == json.dumps(rational_str(big))
    assert "".join(cli._ENCODER.iterencode([Fraction(-3, 6), 2])) == '[\n  "-1/2",\n  2\n]'
    with pytest.raises(TypeError):
        "".join(cli._ENCODER.iterencode({"x": object()}))


def test_cli_series_layout_is_to_json_dict() -> None:
    sys_ = build_mde(validate_triple(1, 3, 7, 11), 12)
    mv = minimal_vector(sys_)
    basis = derived_basis(sys_, mv)
    # Reduced series, series still in integer form, and one with exponent 0.
    for f in (*mv.components, *basis.first, *basis.second, eisenstein(6, 5)):
        layout = json.loads("".join(cli._ENCODER.iterencode(cli._series(f))))
        assert layout == f.to_json_dict()


INVALID_ARGV = [
    ["coeffs", "--triple", "1,2,4", "--terms", "2"],
    ["coeffs", "--triple", "a,b,c,d", "--terms", "2"],
    ["coeffs", "--triple", "1,1,4,7", "--terms", "2"],
    ["coeffs", "--triple", "1,2,4,7", "--terms", "-1"],
    ["valuations", "--triple", "1,3,7,11", "--prime", "11", "--terms", "0"],
    ["bogus"],
    [],
    ["eisenstein", "--weight", "4", "--terms", "1",
     "--output", "missing-directory/out.txt"],
]


@pytest.mark.parametrize("argv", INVALID_ARGV)
def test_invalid_inputs_exit_one(argv, capsys) -> None:
    assert run(argv) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [a for a in INVALID_ARGV if "--output" not in a])
def test_invalid_input_leaves_output_untouched(argv, tmp_path, capsys) -> None:
    # Handlers raise before rendering, so --output is never opened.
    target = tmp_path / "out.txt"
    target.write_bytes(b"earlier result\n")
    assert run(argv + ["--output", str(target)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier result\n"


def test_main_exits_with_run_code(monkeypatch, capsys) -> None:
    for terms, code in (("1", EXIT_OK), ("-1", EXIT_INVALID)):
        monkeypatch.setattr(sys, "argv",
                            ["vvmf3", "eisenstein", "--weight", "4", "--terms", terms])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code


def test_broken_pipe_exits_one_without_traceback() -> None:
    # As `vvmf3 scan --level 1 --level-max 40 | head -1`: the reader closes
    # the pipe after one line, long before the table's 360 kB are written.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from vvmf3.cli import main; main()",
         "scan", "--level", "1", "--level-max", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_INVALID
    assert err == b""
    assert first.split() == [b"N", b"A", b"B", b"C", b"k0", b"small_level_congruence",
                             b"level7_primitive", b"gamma02_pattern_M", b"ubd_primes"]


def _option(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return values.map(lambda v: [flag, str(v)])


_SMALL = st.integers(-2, 14)
_TRIPLE = st.one_of(
    st.sampled_from([f"{t.C},{t.A},{t.B},{t.N}"
                     for n in range(1, 17) for t in enumerate_level(n)]),
    st.tuples(_SMALL, _SMALL, _SMALL, st.integers(-2, 16)).map(
        lambda v: ",".join(map(str, v))),
    st.text(alphabet="0123456789,-+ x.", max_size=12),
)
_TERMS = _option("--terms", st.integers(-2, 12))
_ARGV = st.tuples(
    st.one_of(
        st.tuples(st.just(["coeffs"]), _option("--triple", _TRIPLE), _TERMS),
        st.tuples(st.just(["params"]), _option("--triple", _TRIPLE)),
        st.tuples(st.just(["valuations"]), _option("--triple", _TRIPLE),
                  _option("--prime", st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13]), _SMALL)), _TERMS),
        st.tuples(st.just(["classify"]), _option("--triple", _TRIPLE)),
        st.tuples(st.just(["scan"]), _option("--level", st.integers(-2, 16)),
                  _option("--level-max", st.integers(-2, 16))),
        st.tuples(st.just(["family", "gamma02"]), _option("--M", _SMALL),
                  _option("--A", _SMALL), _option("--x", _SMALL)),
        st.tuples(st.just(["family", "gamma3"]), _option("--x0", _SMALL),
                  _option("--x1", _SMALL), _option("--x2", _SMALL)),
        st.tuples(st.just(["eisenstein"]), _option("--weight", _SMALL), _TERMS),
        st.tuples(st.just(["basis"]), _option("--triple", _TRIPLE), _TERMS),
    ),
    _option("--format", st.sampled_from(["json", "csv", "table"])),
).map(lambda parts: [arg for part in (*parts[0], parts[1]) for arg in part])


@given(_ARGV)
@settings(max_examples=500, deadline=None)
def test_run_fuzzed_argv_exits_cleanly(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_INVALID), (argv, code)
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error:"), argv
    if code == EXIT_OK and argv[0] == "scan" and argv[-1] == "json":
        data = json.loads(out.getvalue())
        assert data["count"] == len(data["rows"])
