"""Self-test of the benchmark, on tiny inputs; about a minute.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that

- every workload runs, its outputs pass their checks, and the result line
  carries exactly the metrics BENCHMARK.json names, each with its unit, both
  untraced and traced; the human-readable lines name each metric with its unit;
- a change of seed changes the inputs of ubd_sweep, deep_series and
  basis_certify, and nothing else; ubd_sweep draws from 9,308 pairs;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import SIZES, WORKLOADS, make_inputs, ubd_population
from run import PARTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDED = {"ubd_sweep": "pairs", "deep_series": "triple", "basis_certify": "triples"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int) -> list[str]:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {lines[-12:]}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = [(m["name"], m["unit"]) for m in spec]
    if not trace:
        expected += list(PARTS[workload])
    got = result["metrics"]
    if set(got) != {m["name"] for m in spec}:
        errors.append(f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in spec})} differ")
    for m in spec:
        value = got.get(m["name"], {}).get("value")
        if got.get(m["name"], {}).get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} lacks unit {m['unit']}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}: {m['name']} = {value!r} is not a number")
        elif not trace and not value > 0:
            errors.append(f"{where}: {m['name']} = {value} is not positive")
    text = "\n".join(lines[:-1])
    for name, unit in expected:
        if not re.search(rf"^\s+{re.escape(name)}\s+(\S+ {re.escape(unit)}|n/a)\b", text, re.M):
            errors.append(f"{where}: no line prints {name} in {unit}")
    return errors


def masked(workload: str, data: dict) -> dict:
    """The input with its seed-chosen part blanked out."""
    key = SEEDED.get(workload)
    if key is None:
        return data
    text = json.dumps(data)
    if isinstance(data[key], str):
        text = text.replace(data[key], "<seeded>")
    out = json.loads(text)
    out[key] = [None] * len(out[key]) if isinstance(out[key], list) else "<seeded>"
    return out


def check_seeds() -> list[str]:
    errors = []
    triples, pairs = ubd_population(60)
    if (triples, len(pairs), len({p[:4] for p in pairs})) != (19751, 9308, 9308):
        errors.append("criterion-06 population is not 9,308 pairs from 19,751 triples")
    for size in SIZES:
        for workload in WORKLOADS:
            a, b = make_inputs(workload, 1, size), make_inputs(workload, 2, size)
            if a != make_inputs(workload, 1, size):
                errors.append(f"{workload}/{size}: the same seed gave other inputs")
            if (a != b) != (workload in SEEDED):
                errors.append(f"{workload}/{size}: seeds 1 and 2 {'differ' if a != b else 'agree'}")
            if masked(workload, a) != masked(workload, b):
                errors.append(f"{workload}/{size}: the seed changed more than the inputs")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "ubd_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without src/ the benchmark still printed a result or exited 0"]
    return []


def main() -> int:
    errors = check_seeds() + check_bare_directory()
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(workload, trace)
            print(f"ran {workload} trace {trace}", flush=True)
    if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json names other workloads than perfbench/inputs.py")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
