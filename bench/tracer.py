"""Run one gga-verify CLI invocation in-process and time its layers.

Usage (from the repository root, with src/ on PYTHONPATH):

    python bench/tracer.py verify --r 2..4 --i all --J 0 --N 30

Wraps the public functions of each gga_verify module under every name the
package's modules bind them to, so calls between modules pass through the
wrapper. Calls a function makes to itself through a nested helper are not
seen. Then calls gga_verify.cli.run(argv) with stdout captured and prints one
JSON object: the exit code, the captured stdout, and per-layer metrics named
<module>.<function>.<stat>. Every wrapped function reports calls, total_s
and self_s (total_s minus the time spent in wrapped callees); the extra
counts below are computed from call arguments and results, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import inspect
import io
import json
import sys
import time
from collections import Counter, defaultdict
from functools import lru_cache

from gga_verify import cli, hilbert, monomial, partitions, qseries, recursion

VERIFIERS = (
    "verify_main",
    "verify_hp_step",
    "verify_hp_expansion",
    "verify_c_expansion",
    "verify_mn_tables",
    "verify_limits",
)

# (module, attribute path) of every wrapped function, in report order.
LAYERS = (
    (partitions, "count_D"),
    (partitions, "count_E"),
    (partitions, "series_E"),
    (partitions, "count_C"),
    (qseries, "product_geometric_inverses"),
    (qseries, "TruncatedSeries.__mul__"),
    (monomial, "standard_count"),
    (monomial, "MonomialIdeal.build"),
    (monomial, "colon_var"),
    (monomial, "add_var"),
    (hilbert, "hp_brute"),
    (hilbert, "hp_split"),
    (hilbert, "hp_notation"),
    (recursion, "c_series"),
    (recursion, "coeff_table"),
    *((recursion, name) for name in VERIFIERS),
    (cli, "run"),
)

# Extra per-layer counts and their units, beyond calls / total_s / self_s.
COUNTS = {
    "partitions.count_D.partitions_scanned": "count",
    "qseries.product_geometric_inverses.max_trunc": "degree",
    "qseries.product_geometric_inverses.updates": "count",
    "monomial.standard_count.monomials_scanned": "count",
    "hilbert.hp_split.nodes": "count",
    "hilbert.hp_notation.cache_hits": "count",
    "hilbert.hp_notation.cache_misses": "count",
    "recursion.c_series.cascade_calls": "count",
    "recursion.c_series.max_work_trunc": "degree",
    "recursion.coeff_table.entries": "count",
    "cli.run.out_bytes": "bytes",
}


def layer_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric this tracer emits, with its unit."""
    units = {}
    for module, attr in LAYERS:
        name = layer_name(module, attr)
        units |= {f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"}
    return units | COUNTS


@lru_cache(maxsize=None)
def partitions_at_least(n: int, k: int) -> int:
    """Number of partitions of n with every part >= k (smallest part first)."""
    if n == 0:
        return 1
    return sum(partitions_at_least(n - j, j) for j in range(k, n + 1))


def partition_numbers(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p[m] = total
    return p


class Frame:
    """One open call of a wrapped function."""

    __slots__ = ("child_s", "cascade")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.cascade = False


class Tracer:
    """Per-layer call counts, inclusive and self times, and exact counters."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.depth: Counter[str] = Counter()
        self.stack: list[Frame] = []
        self._p = [1]

    def p(self, n: int) -> int:
        if n >= len(self._p):
            self._p = partition_numbers(max(n, 2 * len(self._p)))
        return self._p[n]

    def wrap(self, name: str, fn, before=None, after=None):
        """Time fn as layer `name`.

        before(frame, parent, args) runs on the bound arguments just before the
        call and may replace them; after(parent, args, result) adds counts.
        """
        signature = inspect.signature(fn) if before or after else None

        def wrapper(*args, **kwargs):
            frame = Frame()
            parent = self.stack[-1] if self.stack else None
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if before is not None:
                    before(frame, parent, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            self.calls[name] += 1
            self.depth[name] += 1
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.depth[name] -= 1
                if not self.depth[name]:
                    self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed
            if after is not None:
                after(parent, bound.arguments, result)
            return result

        return wrapper

    # Hooks: each adds the exact counts of one layer.

    def _count_D(self, parent, args, result) -> None:
        self.counts["partitions.count_D.partitions_scanned"] += self.p(args["n"])

    def _product_args(self, frame, parent, args) -> None:
        # Materialise the parts once, so the count and the call see the same list.
        args["parts"] = list(args["parts"])

    def _product(self, parent, args, result) -> None:
        n, key = args["n"], "qseries.product_geometric_inverses"
        self.counts[f"{key}.max_trunc"] = max(self.counts[f"{key}.max_trunc"], n)
        # One update per part m <= n and degree m..n: sum of (n + 1 - m).
        parts = args["parts"]
        if parts and max(parts) > n:
            parts = [m for m in parts if m <= n]
        self.counts[f"{key}.updates"] += (n + 1) * len(parts) - sum(parts)
        if parent is not None and parent.cascade:
            key = "recursion.c_series.max_work_trunc"
            self.counts[key] = max(self.counts[key], n)

    def _c_series_args(self, frame, parent, args) -> None:
        frame.cascade = args["index"] > args["r"]
        self.counts["recursion.c_series.cascade_calls"] += frame.cascade

    def _standard_count(self, parent, args, result) -> None:
        scanned = partitions_at_least(args["weight"], args["ideal"].min_var)
        self.counts["monomial.standard_count.monomials_scanned"] += scanned

    def _add_var(self, parent, args, result) -> None:
        if self.depth["hilbert.hp_split"]:
            self.counts["hilbert.hp_split.nodes"] += 1

    def _coeff_table(self, parent, args, result) -> None:
        self.counts["recursion.coeff_table.entries"] += len(result.entries)

    def install(self) -> None:
        """Rebind every wrapped function wherever a gga_verify module holds it."""
        hooks = {
            "partitions.count_D": (None, self._count_D),
            "qseries.product_geometric_inverses": (self._product_args, self._product),
            "monomial.standard_count": (None, self._standard_count),
            "monomial.add_var": (None, self._add_var),
            "recursion.c_series": (self._c_series_args, None),
            "recursion.coeff_table": (None, self._coeff_table),
        }
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "gga_verify"]
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self.wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)

    def metrics(self) -> dict[str, float | int]:
        info = hilbert._hp_notation_cached.cache_info()
        self.counts["hilbert.hp_notation.cache_hits"] = info.hits
        self.counts["hilbert.hp_notation.cache_misses"] = info.misses
        out: dict[str, float | int] = {}
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    code = cli.run(argv, stdout=captured)
    text = captured.getvalue()
    tracer.counts["cli.run.out_bytes"] = len(text.encode("utf-8"))
    print(json.dumps({"exit": code, "stdout": text, "metrics": tracer.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
