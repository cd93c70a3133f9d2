"""Outside-in tracer: wraps the package's public functions with timing spans.

The package binds names with `from .x import f`, so one function can live in
several module namespaces. `Tracer.install` replaces every binding of every
target in every loaded `apsemigroups` module, and `MonomialOrder.key` on the
class, and `uninstall` puts the originals back.

Each wrapped call is a span. A span's self time is its duration minus the
time of the wrapped spans it called, so the self times of all layers add up
to the time spent inside `cli.main`. Inclusive time (`.s`) counts only the
outermost call of a function, so recursion is not counted twice.

Left unwrapped on purpose: `lattice` (Vec2 arithmetic) and the `mono_*`
tuple helpers of `polynomials`. They run millions of times per call, too
fine-grained to wrap; their cost shows in their callers' self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable

PACKAGE = "apsemigroups"
LAYERS = ("cli", "verify", "closed_forms", "polynomials", "semigroup")
FINE_GRAINED_PREFIX = "mono_"
ORDER_KEY = "polynomials.order_key"
# Spans that cli.main opens for reasons other than recomputing report
# content: the report itself and input validation.
NOT_OUTSIDE_REPORT = frozenset({"verify.full_report", "semigroup.build_family"})

_perf = time.perf_counter


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


def targets() -> dict[str, Callable]:
    """Span name -> original function, for every public function that a
    layer module defines (imported names belong to their defining module)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and not name.startswith(FINE_GRAINED_PREFIX)
            ):
                out[f"{layer}.{name}"] = obj
    return out


def package_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Per-function counts and times, plus the counters the benchmark names."""

    def __init__(self) -> None:
        self.originals = targets()
        self._by_id = {id(fn): span for span, fn in self.originals.items()}
        self._order_cls = sys.modules[f"{PACKAGE}.polynomials"].MonomialOrder
        self._order_key = self._order_cls.__dict__["key"]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        # Wrappers hold this dict, so reset() zeroes it in place.
        self.stats = {span: Stat() for span in self.originals}
        self.stats[ORDER_KEY] = Stat()
        self.reset()

    # -- bookkeeping ---------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()
        self.reduce_zero = 0
        self.box_cells = 0
        self.outside_report_s = 0.0
        self._stack.clear()

    def _hook(self, span: str, args, kwargs, result) -> None:
        if span == "polynomials.reduce":
            if result.is_zero():
                self.reduce_zero += 1
        elif span == "verify.hilbert_truncation_check":
            box = kwargs["box"] if "box" in kwargs else args[2]
            self.box_cells += (box.cap_x + 1) * (box.cap_y + 1)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stats = self.stats
        stack = self._stack
        hooked = span in ("polynomials.reduce", "verify.hilbert_truncation_check")
        counts_outside = span not in NOT_OUTSIDE_REPORT

        def wrapper(*args, **kwargs):
            stat = stats[span]
            stat.calls += 1
            stat.depth += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - start
                stack.pop()
                stat.depth -= 1
                stat.self_s += dt - frame[1]
                if stat.depth == 0:
                    stat.total_s += dt
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[0] == "cli.main" and counts_outside:
                        self.outside_report_s += dt
            if hooked:
                self._hook(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {span: self._wrap(span, fn) for span, fn in self.originals.items()}
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                span = self._by_id.get(id(obj))
                if span is not None and obj is self.originals[span]:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[span])

        original_key = self._order_key
        stats = self.stats

        def key(order, m):
            stats[ORDER_KEY].calls += 1
            return original_key(order, m)

        key.__wrapped__ = original_key
        self._patched.append((self._order_cls, "key", original_key))
        self._order_cls.key = key

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._stack.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Every package binding that still holds an original target while
        installed; empty when the wrappers are complete."""
        originals = set(map(id, self.originals.values()))
        found = [
            f"{mod.__name__}.{name}"
            for mod in package_modules()
            for name, obj in vars(mod).items()
            if id(obj) in originals
        ]
        if self._order_cls.__dict__["key"] is self._order_key:
            found.append(f"{self._order_cls.__qualname__}.key")
        return found

    # -- results -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {f"{span}.calls": st.calls for span, st in self.stats.items()}
        out["polynomials.reduce.zero"] = self.reduce_zero
        out["verify.box_cells"] = self.box_cells
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics the benchmark reports, for one traced batch."""
        st = self.stats

        def layer_sum(layer: str, attr: str):
            return sum(
                getattr(s, attr) for span, s in st.items() if span.startswith(layer + ".")
            )

        reduce_calls = st["polynomials.reduce"].calls
        return {
            "polynomials.buchberger.calls": st["polynomials.buchberger"].calls,
            "polynomials.buchberger.s": st["polynomials.buchberger"].total_s,
            "polynomials.buchberger.self_s": st["polynomials.buchberger"].self_s,
            "polynomials.order_key.calls": st[ORDER_KEY].calls,
            "polynomials.reduce.calls": reduce_calls,
            "polynomials.reduce.self_s": st["polynomials.reduce"].self_s,
            "polynomials.reduce.zero_frac": (
                self.reduce_zero / reduce_calls if reduce_calls else 0.0
            ),
            "polynomials.s_polynomial.calls": st["polynomials.s_polynomial"].calls,
            "polynomials.leading_term.calls": st["polynomials.leading_term"].calls,
            "polynomials.leading_term.self_s": st["polynomials.leading_term"].self_s,
            "polynomials.toric_kernel.s": st["polynomials.toric_kernel"].total_s,
            "polynomials.is_groebner_basis.s": st["polynomials.is_groebner_basis"].total_s,
            "polynomials.standard_monomials.s": st["polynomials.standard_monomials"].total_s,
            "semigroup.member_certificate.calls": st["semigroup.member_certificate"].calls,
            "semigroup.member_certificate.self_s": st["semigroup.member_certificate"].self_s,
            "semigroup.apery_bruteforce.calls": st["semigroup.apery_bruteforce"].calls,
            "semigroup.apery_bruteforce.s": st["semigroup.apery_bruteforce"].total_s,
            "semigroup.quasi_frobenius.calls": st["semigroup.quasi_frobenius"].calls,
            "semigroup.build_family.s": st["semigroup.build_family"].total_s,
            "verify.enumerate_semigroup.s": st["verify.enumerate_semigroup"].total_s,
            "verify.expand_series.s": st["verify.expand_series"].total_s,
            "verify.hilbert_truncation_check.self_s": st[
                "verify.hilbert_truncation_check"
            ].self_s,
            "verify.box_cells": self.box_cells,
            "verify.full_report.s": st["verify.full_report"].total_s,
            "verify.complex_check.s": st["verify.complex_check"].total_s,
            "verify.gastinger_check.self_s": st["verify.gastinger_check"].self_s,
            "cli.self_s": layer_sum("cli", "self_s"),
            "cli.outside_report_s": self.outside_report_s,
            "closed_forms.calls": layer_sum("closed_forms", "calls"),
            "closed_forms.self_s": layer_sum("closed_forms", "self_s"),
        }

    def self_time_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

