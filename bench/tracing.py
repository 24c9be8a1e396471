"""Per-layer tracing for the linsep benchmark.

The tracer wraps the entry points of every linsep layer from outside the
library.  A wrapper is installed at each module or class attribute that
resolves to the traced function, because callers reach the same function
through different names: ``codec`` calls ``fl._rank_raw`` through the module,
while ``codec``, ``builder``, ``harness`` and ``serialize`` each import
``mat_mul`` by name.  Wrappers keep a span stack, so a layer's self time is
its span's duration minus the time its traced children took.  Spans are
aggregated per entry point as they close; no per-call records are kept.

Everything here runs in one process and one thread: nothing waits on a queue
and nothing is retried, so no wait-time or retry metrics exist.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# Layer -> entry points traced in that module.  ``Class.method`` names a
# method patched on the class.  Private kernels are listed where the
# benchmark's per-layer metrics name them.
ENTRY_POINTS = {
    "field": (
        "mat_mul", "_rank_raw", "_rref", "inverse", "left_null_space", "rank",
        "rref", "row_stack", "vectors_as_matrix", "from_rows", "identity",
        "zeros", "random_matrix", "random_invertible",
    ),
    "assignment": (
        "cyclic_assignment", "general_assignment", "grouped_assignment",
        "allocate_real_slots", "unique_group", "validate_replication",
    ),
    "builder": (
        "build_auto", "build_middle", "build_small", "build_large",
        "build_general", "build_grouped", "random_demand", "demand_from_rows",
        "pad_demand", "expected_cost", "regime_for", "adversarial_fixture",
        "Scheme.subscheme",
    ),
    "codec": (
        "encode_worker", "decode", "verify_decodability", "responder_subsets",
        "random_messages", "zero_messages", "fallback_full_recovery",
    ),
    "bounds": (
        "converse_cost", "achievable_cost", "achievable_cost_general",
        "optimality_class", "edge_threshold_cost", "computation_costs",
    ),
    "harness": ("run_trial", "sweep", "kc_for_free_check"),
    "serialize": ("dumps", "loads", "scheme_to_dict", "scheme_from_dict"),
    "cli": ("main",),
}

_MARK = "__linsep_bench_wrapper__"


class Stat:
    __slots__ = ("calls", "self_s", "parents", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.parents: Counter = Counter()  # parent span key -> calls
        self.extra: Counter = Counter()  # counts computed from args/results


def _mat_mul_post(stat: Stat, args, result) -> None:
    a, b = args[0], args[1]
    rows, inner, cols = a.rows, a.cols, b.cols
    # The left operand is split into 16-bit halves, so every product is
    # formed twice.
    stat.extra["macs"] += 2 * rows * inner * cols
    stat.extra["bytes"] += 8 * (rows * inner + inner * cols + rows * cols)


def _decode_post(stat: Stat, args, result) -> None:
    if not result.success:
        stat.extra["failures"] += 1


def _verify_post(stat: Stat, args, result) -> None:
    stat.extra["failing_subsets"] += len(result)


def _dumps_post(stat: Stat, args, result) -> None:
    stat.extra["bytes"] += len(result.encode("utf-8"))


_POST = {
    "field.mat_mul": _mat_mul_post,
    "codec.decode": _decode_post,
    "codec.verify_decodability": _verify_post,
    "serialize.dumps": _dumps_post,
}


def _linsep_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "linsep" or name.startswith("linsep."))]


class Tracer:
    """Installs wrappers on entry; restores every patched attribute on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span key, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        post = _POST.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.self_s += dt - frame[1]
                stat.parents[parent] += 1
            if post is not None:
                post(stat, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"linsep.{layer}")
                 for layer in ENTRY_POINTS}
        modules = _linsep_modules()
        for layer, names in ENTRY_POINTS.items():
            home = homes[layer]
            for name in names:
                key = f"{layer}.{name.split('.')[-1]}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is None or attr not in vars(cls):
                        self.missing.append(f"{layer}.{name}")
                        continue
                    self._patch(cls, attr, self._wrap(key, vars(cls)[attr]))
                    continue
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def _stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items()
                   if k.split(".")[0] == layer)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        st = self._stat
        out: dict[str, tuple[float, str]] = {}

        def calls_self(key: str) -> None:
            out[f"{key}.calls"] = (st(key).calls, "count")
            out[f"{key}.self_s"] = (st(key).self_s, "s")

        for key in ("field.mat_mul", "field._rank_raw", "field._rref",
                    "field.inverse", "field.left_null_space"):
            calls_self(key)
        out["field.mat_mul.macs"] = (st("field.mat_mul").extra["macs"], "count")
        out["field.mat_mul.bytes"] = (
            st("field.mat_mul").extra["bytes"], "bytes_computed")
        out["field.self_s"] = (self.layer_self_s("field"), "s")

        for key in ("builder.build_auto", "builder.build_middle"):
            calls_self(key)
        sub = st("builder.subscheme").calls
        misses = st("builder.build_middle").parents["builder.subscheme"]
        out["builder.subscheme.calls"] = (sub, "count")
        # No subscheme lookups means no hits: report 0, not 1.
        out["builder.subscheme.hit_ratio"] = (1 - misses / sub if sub else 0.0, "ratio")
        out["builder.self_s"] = (self.layer_self_s("builder"), "s")

        calls_self("codec.encode_worker")
        calls_self("codec.decode")
        out["codec.decode.failures"] = (st("codec.decode").extra["failures"], "count")
        calls_self("codec.verify_decodability")
        verify = st("codec.verify_decodability")
        out["codec.verify_decodability.failing_subsets"] = (
            verify.extra["failing_subsets"], "count")
        checks = sum(st(k).parents["codec.verify_decodability"]
                     for k in ("field._rank_raw", "field.rank"))
        out["codec.verify.rank_checks_per_scheme"] = (
            checks / verify.calls if verify.calls else 0.0, "count")
        out["codec.self_s"] = (self.layer_self_s("codec"), "s")

        calls_self("harness.run_trial")
        out["harness.self_s"] = (self.layer_self_s("harness"), "s")

        out["serialize.dumps.self_s"] = (st("serialize.dumps").self_s, "s")
        out["serialize.dumps.bytes"] = (st("serialize.dumps").extra["bytes"], "bytes")
        out["serialize.loads.self_s"] = (st("serialize.loads").self_s, "s")

        out["cli.main.self_s"] = (st("cli.main").self_s, "s")
        out["bounds.self_s"] = (self.layer_self_s("bounds"), "s")
        out["assignment.self_s"] = (self.layer_self_s("assignment"), "s")
        return out


def leftover_wrappers() -> list[str]:
    """Names of linsep attributes still bound to a tracing wrapper."""
    found = []
    for mod in _linsep_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found
