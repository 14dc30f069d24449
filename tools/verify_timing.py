"""Time verify_formula and its residue kernel _frobenius, for comparing two checkouts.

    python3 tools/verify_timing.py [--seed 1] [--repeat 25]

It measures the package in the ``src`` directory of its own checkout, in this
one interpreter, with perf_counter; each figure is the minimum over
``--repeat`` runs.  Three parts:

- ``sweep``: the 1,000 (triple, prime) pairs of perfbench's ubd_sweep input
  for the seed (perfbench/inputs.py), each verified to n = 100: every
  verify_formula call, and _frobenius alone on the arguments verify_formula
  gives it;
- ``scaling``: verify_formula for (1,3,7,11) at p = 11, n_max = 100, 300, 1000;
- ``windows``: verify_formula and _frobenius at n_max = 100 on three pairs whose
  residue window is above 1.

It prints one JSON object, with a sha256 of the repr of every report, so two
checkouts can be shown to give the same reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import make_inputs  # noqa: E402
from vvmf3 import validate_triple, verify_formula  # noqa: E402
from vvmf3.arith import int_valuation  # noqa: E402
from vvmf3.mde import _frobenius, build_mde  # noqa: E402

SCALING = ((1, 3, 7, 11), 11, (100, 300, 1000))
WINDOWS = (((0, 1, 26, 27), 3), ((0, 1, 127, 512), 2), ((1, 2, 340, 343), 7))


def best(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return min(times)


def frobenius_args(t, p: int, n_max: int) -> tuple:
    """The arguments verify_formula passes to _frobenius, for an applicable pair."""
    report = verify_formula(t, p, n_max)
    e = int_valuation(6 * t.N, p)
    k = n_max * (report.case.delta + e) + 1
    w = min(n_max, -(-k // e))
    return build_mde(t, w), report.lead, n_max, p**k, w


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=25)
    args = parser.parse_args()
    data = make_inputs("ubd_sweep", args.seed)
    n_max = data["n_max"]
    pairs = [(validate_triple(*row[:4]), row[4]) for row in data["pairs"]]
    frob = [frobenius_args(t, p, n_max) for t, p in pairs]
    digest = hashlib.sha256()
    for t, p in pairs:
        digest.update(repr(verify_formula(t, p, n_max)).encode())
    sweep = {
        "pairs": len(pairs),
        "windows": sorted({a[4] for a in frob}),
        "verify_formula_s": best(lambda: [verify_formula(t, p, n_max) for t, p in pairs],
                                 args.repeat),
        "frobenius_s": best(lambda: [_frobenius(*a) for a in frob], args.repeat),
    }
    tup, p, orders = SCALING
    t = validate_triple(*tup)
    scaling = {}
    for order in orders:
        digest.update(repr(verify_formula(t, p, order)).encode())
        scaling[str(order)] = best(lambda: verify_formula(t, p, order), args.repeat)
    windows = {}
    for tup, p in WINDOWS:
        t = validate_triple(*tup)
        digest.update(repr(verify_formula(t, p, 100)).encode())
        a = frobenius_args(t, p, 100)
        windows[f"{tup} p={p}"] = {
            "window": a[4],
            "verify_formula_s": best(lambda: verify_formula(t, p, 100), args.repeat),
            "frobenius_s": best(lambda: _frobenius(*a), args.repeat),
        }
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeat": args.repeat,
        "sweep": sweep,
        "scaling_verify_formula_s": scaling,
        "windows": windows,
        "reports_sha256": digest.hexdigest(),
    }, indent=1))


if __name__ == "__main__":
    main()
