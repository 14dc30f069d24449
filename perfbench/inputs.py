"""Seeded inputs for the benchmark workloads.

The inputs are built here, with the benchmark's own enumeration of admissible
triples, so that the program under test receives only the generated inputs and
shares no code with their generation.  Nothing in this module imports vvmf3.
"""

from __future__ import annotations

import math
import random

# Levels dividing this number never pass the unbounded-denominator criterion.
BOUNDED_PART = 2**8 * 3**4 * 5**2 * 7**2

WORKLOADS = ("ubd_sweep", "deep_series", "scan_render", "basis_certify")

# Workload sizes.  "full" is what the benchmark measures; "tiny" exists for
# the self-test, which runs every workload end to end in a few seconds.
SIZES = {
    "full": {
        "ubd_pairs": 1000,
        "ubd_level_max": 60,
        "ubd_n_max": 100,
        "deep_level": 11,
        "deep_terms": 1000,
        "scan_level_max": 100,
        "basis_triples": 32,
        "basis_level_min": 3,
        "basis_level_max": 100,
        "basis_order": 50,
    },
    "tiny": {
        "ubd_pairs": 12,
        "ubd_level_max": 60,
        "ubd_n_max": 20,
        "deep_level": 11,
        "deep_terms": 30,
        "scan_level_max": 12,
        "basis_triples": 4,
        "basis_level_min": 3,
        "basis_level_max": 20,
        "basis_order": 20,
    },
}


def level_triples(N: int) -> list[tuple[int, int, int, int]]:
    """Admissible (A, B, C, N): 0 <= A < B < C < N, gcd(A, B, C, N) = 1 and
    N | 4(A + B + C), sorted by (A, B, C)."""
    step = N // math.gcd(4, N)
    out = []
    for a in range(N):
        for b in range(a + 1, N):
            for c in range(-(a + b) % step, N, step):
                if c > b and math.gcd(math.gcd(a, b), math.gcd(c, N)) == 1:
                    out.append((a, b, c, N))
    return out


def criterion_primes(N: int) -> list[int]:
    """Primes dividing N / gcd(N, BOUNDED_PART), by trial division."""
    rest = N // math.gcd(N, BOUNDED_PART)
    primes = []
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    return primes


def ubd_population(level_max: int) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """(number of admissible triples, all (A, B, C, N, p) with p a criterion
    prime) over the levels 1..level_max.  At level_max 60 this is 9,308 pairs
    from 19,751 triples; each of those triples has exactly one such prime."""
    triples = [t for N in range(1, level_max + 1) for t in level_triples(N)]
    pairs = [t + (p,) for t in triples for p in criterion_primes(t[3])]
    return len(triples), pairs


def deep_triples(N: int) -> list[tuple[int, int, int, int]]:
    """The level-N triples with no zero exponent, the paper's (1, 3, 7, 11)
    among them.  At level 11 that is 10 of the 15 triples: the 5 with A = 0
    take about 15 % less time and memory at 1,000 terms, so mixing the two
    classes would let the seed, not the program, move the figures."""
    return [t for t in level_triples(N) if t[0] != 0]


def _basis_triples(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """`count` triples, two from each of `count // 2` equal bands of levels in
    [lo, hi], uniform over the band's triples.  The cost of one triple varies
    two- to threefold even between neighbouring levels, so the banding and the
    number of triples keep the total alike from seed to seed."""
    bands = count // 2
    out = []
    for i in range(bands):
        band_lo = lo + (hi - lo + 1) * i // bands
        band_hi = lo + (hi - lo + 1) * (i + 1) // bands - 1
        pool = [t for N in range(band_lo, band_hi + 1) for t in level_triples(N)]
        out.extend(rng.sample(pool, 2))
    return out


def _triple_arg(t) -> str:
    return ",".join(str(v) for v in t[:4])


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's input for a seed: plain JSON-able data, nothing else."""
    sz = SIZES[size]
    rng = random.Random(seed)
    if workload == "ubd_sweep":
        _, pairs = ubd_population(sz["ubd_level_max"])
        return {"pairs": rng.sample(pairs, sz["ubd_pairs"]), "n_max": sz["ubd_n_max"]}
    if workload == "deep_series":
        triples = deep_triples(sz["deep_level"])
        triple = _triple_arg(triples[seed % len(triples)])
        terms = str(sz["deep_terms"])
        return {
            "triple": triple,
            "terms": sz["deep_terms"],
            "commands": [
                ["coeffs", "--triple", triple, "--terms", terms, "--format", "json"],
                ["valuations", "--triple", triple, "--prime", str(sz["deep_level"]),
                 "--terms", terms, "--format", "table"],
            ],
        }
    if workload == "scan_render":
        level_max = sz["scan_level_max"]
        base = ["scan", "--level", "1", "--level-max", str(level_max), "--format"]
        return {
            "rows_per_format": sum(len(level_triples(N)) for N in range(1, level_max + 1)),
            "commands": [base + [fmt] for fmt in ("table", "csv", "json")],
        }
    if workload == "basis_certify":
        triples = _basis_triples(
            rng, sz["basis_triples"], sz["basis_level_min"], sz["basis_level_max"]
        )
        return {"triples": triples, "order": sz["basis_order"]}
    raise ValueError(f"unknown workload {workload!r}")
