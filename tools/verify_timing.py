"""Time verify_formula, for comparing two checkouts.

    python3 tools/verify_timing.py [--seed 1] [--repeat 25]

It measures the package in the ``src`` directory of its own checkout, in this
one interpreter, with perf_counter; each figure is the minimum over
``--repeat`` runs.  Two parts:

- ``sweep``: the 1,000 (triple, prime) pairs of perfbench's ubd_sweep input
  for the seed (perfbench/inputs.py), each verified to n = 100.  Besides the
  minimum, whose runs find the law's row cache warm, ``first_run_s`` times the
  first run after clearing that cache, as in perfbench's fresh interpreters;
- ``pins``: verify_formula at n_max = 100, 300 and 1000 on (1,3,7,11) at
  p = 11 (shift 0) and on three pairs with shift > 0, one each at p = 3, 2
  and 7, each run after clearing the law's row cache, so that the figures
  show the law's cost in n;
- ``predicted``: predicted_valuation on (1,3,7,11) at p = 11 for
  n = 1..400 and at n = 10^12, with the law's row cache info before and
  after; predicted_valuation counts the law's progressions and leaves the
  cache as it is.

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
from vvmf3 import predicted_valuation, validate_triple, verify_formula  # noqa: E402
from vvmf3.valuation import _law_rows  # noqa: E402

PINS = (((1, 3, 7, 11), 11), ((0, 1, 26, 27), 3), ((0, 1, 127, 512), 2), ((1, 2, 340, 343), 7))
ORDERS = (100, 300, 1000)


def best(call, repeat: int, setup=lambda: None) -> float:
    times = []
    for _ in range(repeat):
        setup()
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=25)
    args = parser.parse_args()
    data = make_inputs("ubd_sweep", args.seed)
    n_max = data["n_max"]
    pairs = [(validate_triple(*row[:4]), row[4]) for row in data["pairs"]]
    _law_rows.cache_clear()
    start = perf_counter()
    reports = [verify_formula(t, p, n_max) for t, p in pairs]
    first_run = perf_counter() - start
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(report).encode())
    sweep = {
        "pairs": len(pairs),
        "first_run_s": first_run,
        "law_cache": _law_rows.cache_info()._asdict(),
        "verify_formula_s": best(lambda: [verify_formula(t, p, n_max) for t, p in pairs],
                                 args.repeat),
    }
    pins = {}
    for tup, p in PINS:
        t = validate_triple(*tup)
        row = pins[f"{tup} p={p}"] = {}
        for order in ORDERS:
            digest.update(repr(verify_formula(t, p, order)).encode())
            row[str(order)] = best(lambda: verify_formula(t, p, order), args.repeat,
                                   _law_rows.cache_clear)
    t = validate_triple(1, 3, 7, 11)
    cache_before = _law_rows.cache_info()._asdict()
    predicted = {
        "n_1_to_400_s": best(lambda: [predicted_valuation(t, 11, 1, n) for n in range(1, 401)],
                             args.repeat),
        "n_1e12_s": best(lambda: predicted_valuation(t, 11, 1, 10**12), args.repeat),
        "law_cache_before": cache_before,
        "law_cache_after": _law_rows.cache_info()._asdict(),
    }
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeat": args.repeat,
        "sweep": sweep,
        "pins_verify_formula_s": pins,
        "predicted": predicted,
        "reports_sha256": digest.hexdigest(),
    }, indent=1))


if __name__ == "__main__":
    main()
