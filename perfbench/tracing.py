"""Outside-in layer tracing for wronskit.

Wrappers are installed from here, around the program's public functions and
methods; nothing inside the package is edited.  A function imported by value
(``from .trigring import differentiate``) is a separate binding in every
importing module, and ``TrigPoly.__rmul__``/``__radd__`` are aliases of the
forward methods, so each original is replaced wherever any wronskit module or
class holds it; otherwise calls through the other bindings go uncounted.

Each wrapper records a span around the call.  Spans are aggregated in memory
per metric (calls, total time, self time, and an optional size maximum) and
written out by the caller when the run ends.  Self time is the span's time
minus the time of the traced spans it directly encloses.  A call that
re-enters the metric already on top of the stack (``build`` calling
``row_shift_matrix``, ``__rsub__`` calling ``__sub__``) belongs to the outer
span and is not counted again.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# metric -> (module, dotted attribute) of every function it covers
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "trigring.mul": (("trigring", "TrigPoly.__mul__"),),
    "trigring.add": (("trigring", "TrigPoly.__add__"), ("trigring", "TrigPoly.__sub__")),
    "trigring.differentiate": (("trigring", "differentiate"),),
    "trigring.harmonic_step": (("trigring", "harmonic_step"),),
    "matrix.det": (("matrix", "ExactMatrix.determinant"),),
    "matrix.rank": (("matrix", "ExactMatrix.rank"),),
    "matrix.matmul": (("matrix", "ExactMatrix.__matmul__"),),
    "structured.build": (("structured", "build"), ("structured", "row_shift_matrix"),
                         ("structured", "double_shift_matrix"), ("structured", "pascal_product")),
    "structured.det_closed_form": (("structured", "det_closed_form"),),
    "structured.verify": (("structured", "det_identity"), ("structured", "verify_pascal_product"),
                          ("structured", "verify_triangularization"),
                          ("structured", "verify_even_from_odd"), ("structured", "verify_row_shift")),
    "combinatorics.binomial": (("combinatorics", "binomial"),),
    "combinatorics.binomial_sum": (("combinatorics", "check_odd_binomial_sum"),
                                   ("combinatorics", "check_even_binomial_sum")),
    "independence.hankel": (("independence", "wronskian_hankel"),),
    "independence.two_by_two": (("independence", "two_by_two"),),
    "independence.coordinates": (("independence", "coordinate_matrix"),
                                 ("independence", "coordinates_in_basis"),
                                 ("independence", "scaled_coordinate_matrix"),
                                 ("independence", "binomial_pattern_matrix")),
    "independence.verify": tuple(("independence", name) for name in (
        "verify_wronskian_factorization", "verify_dependence", "verify_even_hankel_transform",
        "verify_wronskian_transform", "verify_full_rank", "verify_basis_columns")),
    "report.finish_report": (("report", "finish_report"),),
    "cli.plan": (("cli", "plan_checks"),),
    "cli.run_checks": (("cli", "run_checks"),),
    "cli.render": (("cli", "render_json"), ("cli", "render_markdown")),
}


def _terms(args, result) -> int:
    return len(getattr(result, "p", ())) + len(getattr(result, "q", ()))


def _order(args, result) -> int:
    return args[0].rows


def _det_metric(args) -> str:
    m = args[0]
    rational = all(isinstance(v, (int, Fraction)) for i in range(m.rows) for v in m.row(i))
    return "matrix.det_rational" if rational else "matrix.det_symbolic"


# size recorded as the metric's maximum, from (args, result)
SIZES = {
    "trigring.mul": _terms,
    "matrix.det_rational": _order,
    "matrix.det_symbolic": _order,
}


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self):
        # metric -> [calls, total_s, self_s, max_size]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [metric, time of enclosed spans]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, metric):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        classify = _det_metric if metric == "matrix.det" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = classify(args) if classify else metric
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            size = SIZES.get(name)
            if size is not None:
                row[3] = max(row[3], size(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target of every already imported wronskit module; a
        target the module no longer has is listed in ``missing``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wronskit" or n.startswith("wronskit.")]
        owners = list(modules)
        for mod in modules:
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__.startswith("wronskit"))
        for metric, targets in TARGETS.items():
            for module, dotted in targets:
                original = sys.modules.get(f"wronskit.{module}")
                if original is None:
                    continue
                for part in dotted.split("."):
                    original = getattr(original, part, None)
                if original is None:
                    self.missing.append(f"{module}.{dotted}")
                    continue
                wrapper = self._wrap(original, metric)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def cache_counts() -> tuple[int, int]:
    """(hits, lookups) of the monomial_derivative cache, (0, 0) if it has none."""
    fn = getattr(sys.modules.get("wronskit.trigring"), "monomial_derivative", None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    got = info()
    return got.hits, got.hits + got.misses
