"""Record the sha256 of every CLI output that the benchmark checks.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are known to be right: it
renders every command any seed can give deep_series and scan_render, at both
sizes, and writes perfbench/digests.json.  The benchmark then fails an item
whose rendered bytes differ from the recorded ones.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import vvmf3.cli  # noqa: E402
from inputs import SIZES, deep_triples, make_inputs  # noqa: E402


def commands(size: str) -> list[list[str]]:
    out = make_inputs("scan_render", 0, size)["commands"]
    for seed in range(len(deep_triples(SIZES[size]["deep_level"]))):
        out += make_inputs("deep_series", seed, size)["commands"]
    return out


def main() -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "record.out"
    digests = {}
    for size in SIZES:
        for argv in commands(size):
            code = vvmf3.cli.run(argv + ["--output", str(path)])
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}; nothing recorded")
            digests[" ".join(argv)] = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digests[' '.join(argv)]}  {' '.join(argv)}", flush=True)
    path.unlink()
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
