"""Time one certification of (1,3,7,11), stage by stage, at orders 100, 300, 1000.

    python3 tools/certify_scaling.py

It measures the package in the ``src`` directory of its own checkout.  A
certification is the sequence of perfbench's basis_certify item: build_mde,
minimal_vector, ode_residual of each component, derived_basis and
denominator_profile of each component.  derived_basis leaves the
coefficients of DF0 and D^2F0 unreduced until they are read, so one more
stage, derived_coeffs_x6, reads .coeffs of those six series: total_s counts
the reduction that a caller such as ``vvmf3 basis`` pays.  Each stage runs
once per order in this one interpreter, timed with perf_counter; the
Eisenstein cache is emptied before each order so every order starts cold.
The script checks that the residuals vanish and that the determinant equals
the Vandermonde product, and prints one JSON object: per order the seconds
of each stage, their total, the bit length of the largest coefficient, a
sha256 of the residuals, DF0, D^2F0, matrix and determinant, and a sha256 of
the three denominator profiles (window, verdict and every PrimeStats field),
so two checkouts can be shown to compute the same numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vvmf3  # noqa: E402
from vvmf3 import qseries  # noqa: E402

TRIPLE = (1, 3, 7, 11)
ORDERS = (100, 300, 1000)


def certify(t: "vvmf3.RepTriple", order: int) -> dict:
    qseries._EISENSTEIN.clear()
    times = {}

    def timed(stage, call):
        start = perf_counter()
        result = call()
        times[stage] = round(perf_counter() - start, 4)
        return result

    sys_ = timed("build_mde", lambda: vvmf3.build_mde(t, order))
    mv = timed("minimal_vector", lambda: vvmf3.minimal_vector(sys_))
    residuals = timed("ode_residual_x3",
                      lambda: [vvmf3.ode_residual(sys_, f) for f in mv.components])
    basis = timed("derived_basis", lambda: vvmf3.derived_basis(sys_, mv))
    timed("derived_coeffs_x6", lambda: [f.coeffs for f in (*basis.first, *basis.second)])
    profiles = timed("denominator_profile_x3",
                     lambda: [vvmf3.denominator_profile(f) for f in mv.components])
    if any(c != 0 for r in residuals for c in r.coeffs):
        raise SystemExit(f"nonzero residual for {t} at order {order}")
    if basis.determinant != basis.vandermonde:
        raise SystemExit(f"determinant {basis.determinant} is not the Vandermonde product")
    digest = hashlib.sha256()
    for series in (*residuals, *basis.first, *basis.second):
        digest.update(json.dumps(series.to_json_dict()).encode())
    digest.update(repr((basis.matrix, basis.determinant)).encode())
    profiles_json = json.dumps([
        [p.window, p.verdict,
         [[s.prime, s.min_valuation, s.new_min_count, s.last_new_min_index,
           s.strictly_decreasing] for s in p.stats]]
        for p in profiles
    ])
    max_bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for f in mv.components for c in f.coeffs)
    return {
        "stages_s": times,
        "total_s": round(sum(times.values()), 4),
        "max_bits": max_bits,
        "outputs_sha256": digest.hexdigest(),
        "profiles_sha256": hashlib.sha256(profiles_json.encode()).hexdigest(),
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    t = vvmf3.validate_triple(*TRIPLE)
    print(json.dumps({
        "triple": ",".join(map(str, TRIPLE)),
        "python": platform.python_version(),
        "orders": {str(T): certify(t, T) for T in ORDERS},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
