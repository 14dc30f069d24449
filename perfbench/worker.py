"""One repetition of a workload, in the fresh interpreter that runs this file.

perfbench/run.py starts it as

    python3 perfbench/worker.py MODE [--trace] < inputs.json

where MODE is a workload name, ``setup`` (import the package and stop) or
``scaling`` (time the recursion and the valuation law at three orders).  It
prints one JSON line: the measurements, and the outcome of the output checks.

The package is imported first, from the checkout's ``src``, and that import is
timed: it is the set-up every CLI user pays.  The package's caches therefore
start cold in every repetition.

Every time is reported twice: as measured, and at the reference speed.  The
host's other tenants change its speed by tens of percent from one second to
the next, so while the work runs the worker times a fixed loop of its own
(``Meter``), on the same CPU, and scales each measured time by ``REF_NOMINAL_S`` over the
loop's time taken alongside it.  The loop never calls the package, so a
faster program gives smaller scaled times, while a slower host does not.
"""

import os
import sys
import time

# One CPU for both threads of the worker, the package's and the reference
# sampler's (``Meter``), so that the sampler times the CPU the package runs
# on: the host's CPUs are slowed by other tenants each in its own way.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

_start = time.perf_counter()
import vvmf3  # noqa: E402
import vvmf3.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer  # noqa: E402

OUT_DIR = Path(ROOT) / ".bench_out"
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())
PROFILE_VERDICTS = {"all-integral", "decreasing-unbounded-pattern", "bounded-in-window"}

# --- the reference speed -----------------------------------------------------

REF_NOMINAL_S = 0.003  # one reference loop's time at the reference speed
REF_MOD = 2**7001 - 1
SETUP_LOOPS = 9  # the set-up time is scaled by the median of this many loops
SAMPLE_PERIOD_S = 0.1  # the sampler times one loop this often
SWITCH_S = 0.05  # the interpreter's thread switch interval while sampling
CHUNK_S = 1.0  # items are scaled in chunks of at least this long


def _reference_loop(table: dict, parts: list) -> int:
    """The kinds of work the package does, in fixed amounts, about 3 ms in all
    on a 2.x GHz x86-64 core: interpreter dispatch with a small dict, big-int
    multiply, mod and gcd at thousands of bits, and string formatting and
    joining.  Other tenants slow each kind by its own factor, so the loop
    mixes them.  It allocates only ints and strings, which the cycle collector
    does not count, so no collection of the package's live objects can start
    inside the loop (and have its time taken off the package's); the caller
    makes the dict and the list before the clock starts."""
    acc = 0
    for i in range(3000):
        acc = (acc * 1103515245 + i) % 2147483647
        table[i & 255] = acc
    big, x = 3**4400, 7**2500
    for i in range(6):
        big = big * x % REF_MOD
        x = math.gcd(big, x + i) + x + 1
    for i in range(800):
        parts.append(f"{i:>6},{i * 7919:>10},{i % 13}|")
        if len(parts) == 64:
            acc ^= len("".join(parts))
            parts.clear()
    return acc


def _timed_loop() -> tuple[float, float]:
    table: dict = {}
    parts: list = []
    start = perf_counter()
    _reference_loop(table, parts)
    return start, perf_counter()


def reference_s() -> float:
    """The median time of SETUP_LOOPS reference loops, one after another."""
    return statistics.median(end - start for start, end in
                             (_timed_loop() for _ in range(SETUP_LOOPS)))


def _overlap(lo: float, hi: float, spans) -> float:
    return sum(max(0.0, min(hi, end) - max(lo, start)) for start, end in spans)


class Meter:
    """Measured item times, and the same times at the reference speed.

    While the items run, a sampler thread wakes every SAMPLE_PERIOD_S, takes
    the interpreter lock and times one reference loop, so the loop samples the
    host's speed all along the work, about 3 % of the time.  The switch
    interval is long enough that the loop runs uninterrupted; the package is
    single-threaded, so nothing else sees it.  An item's time is its span less
    the samples inside it; items are grouped into chunks of at least CHUNK_S,
    and each item of a chunk is scaled by REF_NOMINAL_S over the mean of the
    chunk's samples.  The host's speed jumps between a few levels, and the
    mean weighs each level by the share of the chunk it lasted, where a
    median would pick one of them.
    """

    def __init__(self):
        self.raw, self.scaled, self.refs, self._chunk = [], [], [], []
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_S)
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._samples.append(_timed_loop())

    def add(self, start: float, end: float) -> None:
        self._chunk.append((start, end))
        if end - self._chunk[0][0] >= CHUNK_S:
            self._flush()

    def _flush(self) -> None:
        if not self._chunk:
            return
        lo, hi = self._chunk[0][0], self._chunk[-1][1]
        inside = [(s, e) for s, e in self._samples if lo <= s and e <= hi] or [_timed_loop()]
        ref = statistics.fmean(e - s for s, e in inside)
        self.refs.append(ref)
        for start, end in self._chunk:
            busy = end - start - _overlap(start, end, inside)
            self.raw.append(busy)
            self.scaled.append(busy * REF_NOMINAL_S / ref)
        self._chunk = []

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)
        self._flush()


def _triple(spec) -> "vvmf3.RepTriple":
    a, b, c, n = (int(v) for v in (spec.split(",") if isinstance(spec, str) else spec[:4]))
    return vvmf3.validate_triple(a, b, c, n)


# --- ubd_sweep: verify_formula over (triple, prime) pairs -------------------

def ubd_run(data, probe, meter):
    pairs = [(_triple(row), row[4]) for row in data["pairs"]]
    reports = []
    for i, (t, p) in enumerate(pairs):
        probe.item = i
        start = perf_counter()
        try:
            report = vvmf3.verify_formula(t, p, n_max=data["n_max"])
        except Exception as exc:  # counted as a failed item
            report = exc
        meter.add(start, perf_counter())
        reports.append(report)
    return reports


def ubd_ok(report, n_max: int) -> bool:
    return (
        not isinstance(report, Exception)
        and report.verdict == "formula-verified"
        and [n for n, _, _ in report.rows] == list(range(1, n_max + 1))
        and all(observed == predicted for _, observed, predicted in report.rows)
    )


def ubd_check(data, reports) -> dict:
    n_max = data["n_max"]
    failures = [f"{row}: {rep if isinstance(rep, Exception) else rep.verdict}"
                for row, rep in zip(data["pairs"], reports) if not ubd_ok(rep, n_max)]
    live = True
    if ubd_ok(reports[0], n_max):
        n, observed, predicted = reports[0].rows[0]
        bad = dataclasses.replace(reports[0], rows=((n, observed + 1, predicted),) + reports[0].rows[1:])
        live = not ubd_ok(bad, n_max)
    return {
        "items": len(reports),
        "checked": len(reports),
        "failures": failures,
        "negative_control_live": live,
    }


# --- deep_series and scan_render: vvmf3.cli.run(argv) in-process -----------

def cli_run(data, probe, meter):
    OUT_DIR.mkdir(exist_ok=True)
    outcomes = []
    for i, argv in enumerate(data["commands"]):
        path = OUT_DIR / f"out-{os.getpid()}-{i}"
        probe.item = i
        start = perf_counter()
        try:
            code = vvmf3.cli.run(argv + ["--output", str(path)])
        except Exception as exc:  # counted as a failed item
            code = repr(exc)
        meter.add(start, perf_counter())
        outcomes.append((argv, code, path))
    return outcomes


def digest_ok(argv: list, content: bytes) -> bool:
    """The rendered bytes hash to the digest recorded for this command."""
    return DIGESTS.get(" ".join(argv)) == hashlib.sha256(content).hexdigest()


def cli_check(data, outcomes) -> dict:
    failures, names, size, live = [], [], 0, True
    for i, (argv, code, path) in enumerate(outcomes):
        content = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        size += len(content)
        if code != 0 or not digest_ok(argv, content):
            failures.append(f"{' '.join(argv)}: exit {code}, output "
                            f"{'as recorded' if digest_ok(argv, content) else 'not as recorded'}")
        elif i == 0:
            flipped = bytearray(content)
            flipped[len(flipped) // 2] ^= 1
            live = not digest_ok(argv, bytes(flipped))
        names.append(argv[argv.index("--format") + 1] if argv[0] == "scan" else argv[0])
    return {
        "item_names": names,
        "items": data.get("rows_per_format", 1) * len(outcomes),
        "checked": len(outcomes),
        "failures": failures,
        "negative_control_live": live,
        "output_bytes": size,
    }


# --- basis_certify: recursion, residuals, derived basis, profiles -----------

def basis_run(data, probe, meter):
    order = data["order"]
    results = []
    for i, spec in enumerate(data["triples"]):
        t = _triple(spec)
        probe.item = i
        start = perf_counter()
        try:
            mde = vvmf3.build_mde(t, order)
            mv = vvmf3.minimal_vector(mde)
            residuals = [vvmf3.ode_residual(mde, f) for f in mv.components]
            basis = vvmf3.derived_basis(mde, mv)
            profiles = [vvmf3.denominator_profile(f) for f in mv.components]
            result = (t, mde, mv, residuals, basis, profiles)
        except Exception as exc:  # counted as a failed item
            result = exc
        meter.add(start, perf_counter())
        results.append(result)
    return results


def residual_zero(residual) -> bool:
    return all(c == 0 for c in residual.coeffs)


def basis_ok(result, order: int) -> bool:
    if isinstance(result, Exception):
        return False
    t, _, mv, residuals, basis, profiles = result
    vandermonde = Fraction((t.B - t.A) * (t.C - t.A) * (t.C - t.B), t.N**3)
    return (
        all(f.order == order for f in mv.components)
        and all(residual_zero(r) and r.order == order for r in residuals)
        and vandermonde != 0
        and basis.determinant == vandermonde == basis.vandermonde
        and all(p.window == order and p.verdict in PROFILE_VERDICTS for p in profiles)
    )


def basis_check(data, results) -> dict:
    order = data["order"]
    failures = [f"{s}: {r if isinstance(r, Exception) else 'a check failed'}"
                for s, r in zip(data["triples"], results) if not basis_ok(r, order)]
    live = True
    if basis_ok(results[0], order):
        _, mde, mv, _, _, _ = results[0]
        f = mv.components[0]
        bad = vvmf3.QExpansion(f.exponent, (f.coeffs[0], f.coeffs[1] + 1) + f.coeffs[2:])
        live = not residual_zero(vvmf3.ode_residual(mde, bad))
    return {
        "items": len(results),
        "checked": len(results),
        "failures": failures,
        "negative_control_live": live,
    }


WORKLOADS = {
    "ubd_sweep": (ubd_run, ubd_check),
    "deep_series": (cli_run, cli_check),
    "scan_render": (cli_run, cli_check),
    "basis_certify": (basis_run, basis_check),
}


def repetition(workload: str, data: dict, trace: bool) -> dict:
    run, check = WORKLOADS[workload]
    probe = tracer.Tracer() if trace else types.SimpleNamespace(item=None)
    meter = Meter()
    if trace:
        probe.install()
    try:
        outcome = run(data, probe, meter)
    finally:
        wrappers_clean = probe.restore() if trace else tracer.installed_wrappers() == 0
        meter.close()
    result = check(data, outcome)
    result.update(
        item_s=meter.scaled,
        item_raw_s=meter.raw,
        ref_s=meter.refs,
        wall_s=sum(meter.scaled),
        wall_raw_s=sum(meter.raw),
        wrappers_clean=wrappers_clean,
    )
    if trace:
        formats = {i: argv[argv.index("--format") + 1]
                   for i, argv in enumerate(data.get("commands", ()))}
        result["layers"] = probe.layer_metrics(formats)
        result["layers"]["cli.output_bytes"] = result.get("output_bytes", 0)
        OUT_DIR.mkdir(exist_ok=True)
        probe.dump(OUT_DIR / f"spans-{workload}.tsv")
    return result


def scaling(data: dict) -> dict:
    """Cold-cache cost of the recursion and of the valuation law at three
    orders, for the deep_series triple.  Timed directly: no wrappers."""
    t, p = _triple(data["triple"]), data["prime"]
    lead = vvmf3.classify_prime(t, p).lead
    layers, failures = {}, []
    for order in tracer.SCALING_ORDERS:
        mde = vvmf3.build_mde(t, order)
        start = perf_counter()
        series = vvmf3.component_series(mde, lead, order)
        layers[f"mde.component_series.s.T{order}"] = perf_counter() - start
        start = perf_counter()
        report = vvmf3.verify_formula(t, p, order)
        layers[f"valuation.verify_formula.s.T{order}"] = perf_counter() - start
        layers[f"mde.component_series.max_bits.T{order}"] = tracer.series_max_bits(series)
        if report.lead != lead or not ubd_ok(report, order):
            failures.append(f"{data['triple']} p={p} T={order}")
    return {"layers": layers, "checked": len(tracer.SCALING_ORDERS), "failures": failures,
            "negative_control_live": True, "wrappers_clean": tracer.installed_wrappers() == 0}


def main() -> None:
    if not os.path.realpath(vvmf3.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"vvmf3 was imported from {vvmf3.__file__}, not from {SRC}")
    mode = sys.argv[1]
    if mode == "setup":
        result = {"ref_s": [reference_s()]}
    elif mode == "scaling":
        result = scaling(json.load(sys.stdin))
    else:
        result = repetition(mode, json.load(sys.stdin), "--trace" in sys.argv[2:])
    # Scaled by the first reference time, taken right after the import.
    first_ref = result["ref_s"][0] if "ref_s" in result else reference_s()
    result["setup_s"] = SETUP_S * REF_NOMINAL_S / first_ref
    result["setup_raw_s"] = SETUP_S
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
