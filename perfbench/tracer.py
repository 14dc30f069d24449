"""Spans and counts around vvmf3's public functions, for the traced run only.

Wrappers are installed from the benchmark's own code: nothing in the program
changes.  Only names listed in a module's ``__all__`` are wrapped, plus
``QExpansion.__mul__``, so the benchmark survives the removal of private
helpers.  vvmf3 modules import these names directly, so each wrapper replaces
every module attribute that is the original function: the caller's lookup
(``vvmf3.valuation.build_mde``, ``vvmf3.cli.verify_formula``, ...) finds it.
A name that a later version no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter_ns

PACKAGE_MODULES = ("vvmf3", "vvmf3.arith", "vvmf3.qseries", "vvmf3.mde",
                   "vvmf3.reps", "vvmf3.valuation", "vvmf3.cli")

# (layer, module, name): a span per call.
SPANNED = (
    ("arith.valuation_p", "vvmf3.arith", "valuation_p"),
    ("arith.prime_factors", "vvmf3.arith", "prime_factors"),
    ("qseries.eisenstein", "vvmf3.qseries", "eisenstein"),
    ("qseries.modular_derivative", "vvmf3.qseries", "modular_derivative"),
    ("mde.build_mde", "vvmf3.mde", "build_mde"),
    ("mde.component_series", "vvmf3.mde", "component_series"),
    ("mde.minimal_vector", "vvmf3.mde", "minimal_vector"),
    ("mde.ode_residual", "vvmf3.mde", "ode_residual"),
    ("mde.derived_basis", "vvmf3.mde", "derived_basis"),
    ("reps.enumerate_level", "vvmf3.reps", "enumerate_level"),
    ("reps.classify_triple", "vvmf3.reps", "classify_triple"),
    ("valuation.classify_prime", "vvmf3.valuation", "classify_prime"),
    ("valuation.verify_formula", "vvmf3.valuation", "verify_formula"),
    ("valuation.denominator_profile", "vvmf3.valuation", "denominator_profile"),
    ("valuation.ubd_criterion", "vvmf3.valuation", "ubd_criterion"),
    ("cli.run", "vvmf3.cli", "run"),
)

# The hottest helpers: a count per call and no span.
COUNTED = (
    ("arith.is_prime", "vvmf3.arith", "is_prime"),
    ("arith.int_valuation", "vvmf3.arith", "int_valuation"),
    ("mde.lambda_n", "vvmf3.mde", "lambda_n"),
)

MUL_LAYER = "qseries.mul"

# Orders at which the traced run times the recursion and the valuation law.
SCALING_ORDERS = (100, 300, 1000)

# Layer metrics and their units, in the order they are reported.
LAYER_METRICS = (
    ("mde.component_series.s", "s"),
    ("mde.component_series.calls", "count"),
    ("mde.component_series.max_bits", "bits"),
    ("mde.build_mde.s", "s"),
    ("mde.build_mde.calls", "count"),
    ("mde.build_mde.first_s", "s"),
    ("qseries.arrays_s", "s"),
    ("valuation.verify_formula.s", "s"),
    ("valuation.verify_formula.self_s", "s"),
    ("valuation.classify_prime.s", "s"),
    ("valuation.classify_prime.calls", "count"),
    ("arith.valuation_p.s", "s"),
    ("arith.valuation_p.calls", "count"),
    ("arith.is_prime.calls", "count"),
    ("arith.int_valuation.calls", "count"),
    ("mde.lambda_n.calls", "count"),
    ("valuation.denominator_profile.s", "s"),
    ("valuation.denominator_profile.self_s", "s"),
    ("arith.prime_factors.s", "s"),
    ("arith.prime_factors.calls", "count"),
    ("arith.prime_factors.max_bits", "bits"),
    ("mde.ode_residual.s", "s"),
    ("mde.derived_basis.s", "s"),
    ("mde.minimal_vector.s", "s"),
    ("qseries.modular_derivative.s", "s"),
    ("qseries.modular_derivative.calls", "count"),
    ("qseries.eisenstein.s", "s"),
    ("qseries.mul.s", "s"),
    ("qseries.mul.calls", "count"),
    ("qseries.mul.coeff_products", "count"),
    ("reps.enumerate_level.s", "s"),
    ("reps.classify_triple.s", "s"),
    ("reps.classify_triple.calls", "count"),
    ("valuation.ubd_criterion.s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s.table", "s"),
    ("cli.self_s.csv", "s"),
    ("cli.self_s.json", "s"),
)


def series_max_bits(series) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for c in series.coeffs
    )


def _component_bits(args, result):
    return series_max_bits(result)


def _build_order(args, result):
    return result.order


def _factored_bits(args, result):
    return args[0].bit_length()


def _mul_products(args, result):
    lhs, rhs = args
    if not hasattr(rhs, "coeffs"):
        return 0  # scalar multiple: no series product
    n = min(lhs.order, rhs.order) + 1
    return n * (n + 1) // 2


# Per-layer data taken from the arguments or result after a span has ended,
# so that the span does not include it.
AFTER = {
    "mde.component_series": _component_bits,
    "mde.build_mde": _build_order,
    "arith.prime_factors": _factored_bits,
    MUL_LAYER: _mul_products,
}


class Tracer:
    """Spans kept in memory: [layer, start_ns, end_ns, parent, item, child_ns, extra].

    ``item`` is set by the workload loop to the id of the pair, triple or
    command under way, and every span opened meanwhile carries it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, layer, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(layer)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, 0, 0, parent, self.item, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[2] = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if after is not None:
                rec[6] = after(args, result)
            return result

        return wrapper

    def _count(self, layer, fn):
        counts = self.counts
        counts[layer] = 0

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for make, table in ((self._span, SPANNED), (self._count, COUNTED)):
            for layer, module, name in table:
                source = importlib.import_module(module)
                if name not in getattr(source, "__all__", ()):
                    continue
                original = getattr(source, name)
                wrapper = _mark(make(layer, original), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        qexp = importlib.import_module("vvmf3.qseries").QExpansion
        original = vars(qexp).get("__mul__")
        if original is not None:
            self._patches.append((qexp, "__mul__", original))
            qexp.__mul__ = _mark(self._span(MUL_LAYER, original), original)

    def restore(self) -> bool:
        """Put every original back; True when no wrapped attribute remains."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok and not installed_wrappers()

    def layer_metrics(self, item_formats: dict) -> dict[str, float]:
        """Every LAYER_METRICS value from the recorded spans and counts.

        ``s`` sums the layer's spans (no wrapped function calls itself),
        ``self_s`` subtracts the time covered by direct child spans, and
        ``cli.self_s.<format>`` groups cli.run self time by the format of the
        command (``item_formats[item]``).
        """
        out = {name: 0 for name, _ in LAYER_METRICS}
        for layer, count in self.counts.items():
            out[f"{layer}.calls"] = count
        builds: list[tuple[int, int]] = []
        for layer, start, end, parent, item, child, extra in self.spans:
            dur = end - start
            if f"{layer}.calls" in out:
                out[f"{layer}.calls"] += 1
            if f"{layer}.s" in out:
                out[f"{layer}.s"] += dur / 1e9
            if f"{layer}.self_s" in out:
                out[f"{layer}.self_s"] += (dur - child) / 1e9
            if f"{layer}.max_bits" in out and extra is not None:
                out[f"{layer}.max_bits"] = max(out[f"{layer}.max_bits"], extra)
            if layer == MUL_LAYER:
                out["qseries.mul.coeff_products"] += extra or 0
            elif layer == "mde.build_mde":
                builds.append((extra, dur))
            elif layer == "cli.run":
                key = f"cli.self_s.{item_formats.get(item)}"
                if key in out:
                    out[key] += (dur - child) / 1e9
        if builds:
            first_order, first = builds[0]
            out["mde.build_mde.first_s"] = first / 1e9
            repeats = [d for order, d in builds[1:] if order == first_order]
            if repeats:
                out["qseries.arrays_s"] = (first - statistics.median(repeats)) / 1e9
        return out

    def dump(self, path) -> None:
        """Write the spans, one per line: layer, start, end, parent, item."""
        with open(path, "w") as fh:
            fh.write("layer\tstart_ns\tend_ns\tparent\titem\n")
            for layer, start, end, parent, item, _, _ in self.spans:
                fh.write(f"{layer}\t{start}\t{end}\t{parent}\t{item}\n")


def _mark(wrapper, original):
    wrapper.__wrapped__ = original
    wrapper.perfbench_wrapper = True
    return wrapper


def installed_wrappers() -> int:
    """Number of attributes of vvmf3 modules and classes that are wrappers."""
    found = 0
    for name in PACKAGE_MODULES:
        mod = sys.modules.get(name)
        if mod is None:
            continue
        owners = [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("vvmf3")
        ]
        for owner in owners:
            found += sum(hasattr(v, "perfbench_wrapper") for v in vars(owner).values())
    return found
