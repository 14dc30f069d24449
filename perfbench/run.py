"""The vvmf3 benchmark: four workloads, a seed, a result line per workload.

    python3 perfbench/run.py --workload ubd_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it measures the package in ``src`` there.
Without ``--workload`` it runs all four workloads, one after another.
The workloads, their items and their input sizes are described in
BENCHMARK.json; perfbench/inputs.py builds each input from the seed.

Load model: a closed loop with one caller.  Every repetition of a workload is
one run of its whole fixed input in a fresh interpreter (perfbench/worker.py),
so the package's caches start cold, as for a CLI user, and peak RSS is the
workload's own.  There is always one repetition, and another as long as it
should end within ``--seconds`` of the first one's start.

``--trace 0`` reports the end-to-end metrics: the median over the
repetitions, set-up time the median of several fresh imports.  Times are at
the reference speed: each is scaled by the time of a fixed loop of the
benchmark's own, taken next to it, so that the host's changing speed cancels
out (perfbench/worker.py); the times as measured are printed beside them.
``--trace 1`` runs one repetition untraced and one with spans around the
package's public functions (perfbench/tracer.py), reports the per-layer
metrics and the difference of the two wall times, and times the recursion
and the valuation law at T = 100, 300 and 1000 for the deep_series triple.

Every output is checked (verdicts, exit codes, zero residuals, det equal to
the Vandermonde product, sha256 of every rendered CLI output against
perfbench/digests.json), and each check is shown to be live on a perturbed
output.  Human-readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import SIZES, WORKLOADS, make_inputs
from tracer import LAYER_METRICS, SCALING_ORDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9  # extra interpreters that only import the package
TIME_LIMIT_S = 170  # the whole run, repetitions and checks included

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SCALING = tuple(
    (f"{layer}.T{order}", unit)
    for order in SCALING_ORDERS
    for layer, unit in (
        ("mde.component_series.s", "s"),
        ("mde.component_series.max_bits", "bits"),
        ("valuation.verify_formula.s", "s"),
    )
)
PER_LAYER = LAYER_METRICS + (("cli.output_bytes", "bytes"),) + SCALING + (
    ("trace.overhead_s", "s"),
)
ITEMS = {
    "ubd_sweep": "pairs verified",
    "deep_series": "commands",
    "scan_render": "triples rendered",
    "basis_certify": "triples certified",
}
# Workload-specific timings, printed by name; they are not in the result line
# because every result line carries the same metrics on every workload.
PARTS = {
    "ubd_sweep": (("item_p50_ms", "ms"), ("item_p99_ms", "ms")),
    "deep_series": (("coeffs_s", "s"), ("valuations_s", "s")),
    "scan_render": (("table_s", "s"), ("csv_s", "s"), ("json_s", "s")),
    "basis_certify": (),
}


class BenchError(Exception):
    """A worker did not produce a result."""


def worker(mode: str, payload: str = "", *flags: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached before {mode}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, *flags],
            input=payload, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def verdict(results: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over every worker result."""
    attempted = sum(r.get("checked", 0) for r in results)
    failures = [f for r in results for f in r.get("failures", [])]
    notes = [f"failed: {f}" for f in failures[:10]]
    if not all(r["negative_control_live"] for r in results if "checked" in r):
        notes.append("negative control: a perturbed output passed the check")
    if not all(r["wrappers_clean"] for r in results if "checked" in r):
        notes.append("a tracing wrapper was installed in an untraced run or left behind")
    correct = attempted > 0 and not failures and len(notes) == 0
    return correct, max(attempted, 1), len(failures), notes


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or (None, None) when there are fewer than eleven samples."""
    if len(samples) < 11:
        return None, None
    k = len(samples) - 11
    return 100 * (k + 1) / len(samples), sorted(samples)[k]


def end_to_end(workload: str, reps: list[dict], setups: list[dict]) -> tuple[dict, list]:
    """Times are at the reference speed (perfbench/worker.py): wall_s is the
    median over the repetitions of the sum of their items' times, an item's
    time the median of its times, and setup_s the median over the imports."""
    item_s = [statistics.median(times) for times in zip(*(r["item_s"] for r in reps))]
    wall = statistics.median(r["wall_s"] for r in reps)
    raw_walls = ", ".join(f"{r['wall_raw_s']:.3f}" for r in reps)
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    refs = [t for r in reps for t in r["ref_s"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "items_per_s": reps[0]["items"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "setup_s": f"median of {len(setups)} imports, at the reference speed; "
                   f"{raw_setup:.6f} s as measured",
        "wall_s": f"median of {len(reps)} repetitions, at the reference speed; "
                  f"{raw_walls} s as measured, reference loop {1000 * min(refs):.2f} to "
                  f"{1000 * max(refs):.2f} ms over {len(refs)} times",
        "items_per_s": ITEMS[workload],
        "peak_rss_mb": f"median of {len(reps)} repetitions",
    }
    parts = {f"{name}_s": t for name, t in zip(reps[0].get("item_names", ()), item_s)}
    if workload == "ubd_sweep":
        pct, tail = tail_percentile(item_s)
        parts["item_p50_ms"] = 1000 * statistics.median(item_s)
        parts["item_p99_ms"] = None if tail is None else 1000 * tail
        notes["item_p50_ms"] = f"{len(item_s)} samples"
        notes["item_p99_ms"] = f"p{pct:.1f} of {len(item_s)} samples" if pct else "too few samples"
    lines = []
    for name, unit in END_TO_END + PARTS[workload]:
        value = metrics.get(name, parts.get(name))
        shown = "n/a" if value is None else f"{value:.6f} {unit}"
        lines.append(f"  {name:<16}{shown}  ({notes.get(name, 'median of the repetitions')})")
    return metrics, lines


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> int:
    """Run one workload, print its lines and its result line; the exit code."""
    deadline = time.monotonic() + TIME_LIMIT_S
    payload = json.dumps(make_inputs(workload, seed, size))
    try:
        if trace:
            base = worker(workload, payload, deadline=deadline)
            traced = worker(workload, payload, "--trace", deadline=deadline)
            triple = make_inputs("deep_series", seed, size)["triple"]
            prime = SIZES[size]["deep_level"]  # the level, itself prime
            scaling = worker("scaling", json.dumps({"triple": triple, "prime": prime}),
                             deadline=deadline)
            results = [base, traced, scaling]
            values = {**traced["layers"], **scaling["layers"],
                      "trace.overhead_s": traced["wall_s"] - base["wall_s"]}
            metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
            lines = [f"  {name:<40} {value} {unit}" for name, (value, unit) in metrics.items()]
        else:
            setups = [worker("setup", deadline=deadline) for _ in range(SETUP_PROBES)]
            reps: list[dict] = []
            start = time.monotonic()
            # Another repetition only if it should end within the run's seconds.
            while not reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
                reps.append(worker(workload, payload, deadline=deadline))
            results = reps
            values, lines = end_to_end(workload, reps, setups + reps)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, notes = verdict(results)
    print(f"workload {workload}  seed {seed}  trace {trace}  size {size}  "
          "(one caller, closed loop, fresh interpreter per repetition)")
    print("\n".join(lines))
    print(f"  {'failed_ratio':<16}{failed / attempted:.6f}  ({failed} of {attempted} checked items)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to run (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the self-test's tiny inputs instead of the full ones")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vvmf3" / "__init__.py").is_file():
        print(f"error: no vvmf3 sources at {ROOT / 'src' / 'vvmf3'}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    workloads = [args.workload] if args.workload else WORKLOADS
    codes = [measure(w, args.seed, args.seconds, args.trace, size) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
