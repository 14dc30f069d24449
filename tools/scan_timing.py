"""Time the layers of `vvmf3 scan`, for comparing two checkouts.

    python3 tools/scan_timing.py [--level-max 100] [--repeat 7]

It measures the package in the ``src`` directory of its own checkout, in this
one interpreter, with perf_counter; each figure is the minimum over
``--repeat`` runs, over the levels 1..``--level-max``:

- ``admissible_s``: ``reps._admissible(n)`` at every level, the rows
  (A, B, C, k0) that scan renders;
- ``classified_s``: ``reps._classified(n, rows)`` on those rows, the level's
  classifications and each row's index among them (enumeration excluded);
- ``scan_s``: ``vvmf3 scan --level 1 --level-max M --format F`` through
  ``cli.run`` into a StringIO, for each format F; ``render_s`` is that figure
  less ``admissible_s`` and ``classified_s``.

perfbench's ``--trace 1`` cannot show the first two layers: its spans are
``enumerate_level`` and ``classify_triple``, which scan does not call.  The
script prints one JSON object with the sha256 of each layer's output (the
repr of every level's rows; the JSON of its classifications and the repr of
its index list; each format's text), so two checkouts can be shown to give
the same results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vvmf3 import cli, reps  # noqa: E402

FORMATS = ("table", "csv", "json")


def best(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return min(times)


def scan(level_max: int, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["scan", "--level", "1", "--level-max", str(level_max), "--format", fmt])
    if code != cli.EXIT_OK:
        raise SystemExit(f"scan --format {fmt} exited {code}")
    return out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level-max", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    levels = range(1, args.level_max + 1)

    rows = {n: reps._admissible(n) for n in levels}
    classified = {n: reps._classified(n, rows[n]) for n in levels}
    digests = {"admissible": hashlib.sha256(), "classified": hashlib.sha256()}
    for n in levels:
        classes, idx = classified[n]
        digests["admissible"].update(repr(rows[n]).encode())
        digests["classified"].update(
            json.dumps([c.to_json_dict() for c in classes]).encode() + repr(idx).encode())
    sha = {name: d.hexdigest() for name, d in digests.items()}
    sha.update({fmt: hashlib.sha256(scan(args.level_max, fmt).encode()).hexdigest()
                for fmt in FORMATS})

    admissible_s = best(lambda: [reps._admissible(n) for n in levels], args.repeat)
    classified_s = best(lambda: [reps._classified(n, rows[n]) for n in levels], args.repeat)
    scan_s = {fmt: best(lambda: scan(args.level_max, fmt), args.repeat) for fmt in FORMATS}
    print(json.dumps({
        "python": platform.python_version(),
        "level_max": args.level_max,
        "repeat": args.repeat,
        "triples": sum(map(len, rows.values())),
        "admissible_s": admissible_s,
        "classified_s": classified_s,
        "scan_s": scan_s,
        "render_s": {fmt: s - admissible_s - classified_s for fmt, s in scan_s.items()},
        "sha256": sha,
    }, indent=1))


if __name__ == "__main__":
    main()
