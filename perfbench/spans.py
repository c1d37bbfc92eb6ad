"""Span tracing around trisep's module boundaries, installed only for a run.

``Tracer.install`` replaces each traced function with a wrapper in every
``trisep`` namespace that holds it (``from .x import y`` copies the name),
and on the class for methods.  ``uninstall`` puts the originals back, so the
patched names are the original objects again (``is``).  Nothing inside
``src/`` is edited.

A span records its id, its parent's id, the request it belongs to, its
name, its start and end (perf_counter_ns), and its self time: its duration
minus the time its child spans cover.  Counters count calls that are too
frequent, or too small, for a span.  A target that a later refactor has
renamed is reported in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

# (module, attribute, span name)
SPANS = [
    ("trisep.bigmath", "ln_interval", "bigmath.ln_interval"),
    ("trisep.bigmath", "refine", "bigmath.refine"),
    ("trisep.dyadic", "DyadicInterval.pow_int", "dyadic.pow_int"),
    ("trisep.trinomial", "_sign_at_positive", "trinomial.sign_at_positive"),
    ("trisep.trinomial", "_bracket_power_root", "trinomial.bracket_power_root"),
    ("trisep.trinomial", "separation_bound_real", "trinomial.sep"),
    ("trisep.trinomial", "separation_bound_binomial", "trinomial.sep"),
    ("trisep.succinct", "coprime_basis", "succinct.coprime_basis"),
    ("trisep.succinct", "sign_linear_form_ex", "succinct.sign_linear_form"),
]

# (module, attribute, counter name)
COUNTERS = [
    ("trisep.dyadic", "DyadicInterval.mul", "dyadic.mul"),
    ("trisep.trinomial", "_cmp_power_vs_ratio", "trinomial.cmp_power_vs_ratio"),
    ("trisep.trinomial", "_exact_numerator", "trinomial.exact_numerator"),
    ("trisep.isolate", "_eval_sign", "isolate.eval_sign"),
]

# (name, unit) of every per-layer metric, in output order
LAYER_METRICS = [
    ("bigmath.ln_interval.calls", "calls/req"),
    ("bigmath.ln_interval.self_s", "s/req"),
    ("bigmath.ln_cache.hit_ratio", "ratio"),
    ("bigmath.refine.calls", "calls/req"),
    ("bigmath.refine.rounds", "rounds/req"),
    ("bigmath.refine.final_bits_max", "bits"),
    ("bigmath.refine.self_s", "s/req"),
    ("dyadic.pow_int.calls", "calls/req"),
    ("dyadic.pow_int.self_s", "s/req"),
    ("dyadic.mul.calls", "calls/req"),
    ("trinomial.sign_at_positive.calls", "calls/req"),
    ("trinomial.sign_at_positive.self_s", "s/req"),
    ("trinomial.sign_at_positive.exact_ratio", "ratio"),
    ("isolate.bisect.steps", "steps/req"),
    ("trinomial.bracket_power_root.calls", "calls/req"),
    ("trinomial.bracket_power_root.self_s", "s/req"),
    ("trinomial.cmp_power_vs_ratio.calls", "calls/req"),
    ("succinct.coprime_basis.calls", "calls/req"),
    ("succinct.coprime_basis.self_s", "s/req"),
    ("succinct.coprime_basis.basis_size_max", "count"),
    ("succinct.sign_linear_form.calls", "calls/req"),
    ("succinct.sign_linear_form.self_s", "s/req"),
    ("succinct.sign_linear_form.structural_ratio", "ratio"),
    ("succinct.baker.required_bits_max", "bits"),
    ("trinomial.sep.self_s", "s/req"),
]


def _resolve(module: str, attr: str):
    """(holder, key, original) for 'func' or 'Class.method', or None."""
    holder, key = sys.modules.get(module), attr
    if holder is not None and "." in attr:
        cls_name, key = attr.split(".", 1)
        holder = getattr(holder, cls_name, None)
    if holder is None or key not in vars(holder):
        return None
    return holder, key, vars(holder)[key]


class Tracer:
    def __init__(self):
        # (span_id, parent_id, request_id, name, start_ns, end_ns, self_ns)
        self.spans: List[Tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self.missing: List[str] = []
        self.patched: List[Tuple[object, str, object]] = []
        self.request_id: Optional[int] = None
        self._stack: List[list] = []
        self._ids = itertools.count()

    # -- spans -----------------------------------------------------------

    def _open(self) -> list:
        frame = [next(self._ids), perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((frame[0], parent[0] if parent else None, self.request_id,
                           name, frame[1], end, duration - frame[2]))

    @contextmanager
    def request(self, request_id: int):
        self.request_id = request_id
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, "request")

    def _note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def _span_wrapper(self, name: str, fn):
        tracer = self
        after = {"succinct.coprime_basis": self._after_basis,
                 "succinct.sign_linear_form": self._after_linear_form}.get(name)
        if name == "bigmath.refine":
            fn = self._refine_rounds(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _refine_rounds(self, refine):
        """Count the precision rounds of each refine call and its last bits."""
        tracer = self

        @functools.wraps(refine)
        def counted_refine(compute, *args, **kwargs):
            last = [0]

            def round_(bits):
                tracer.counts["bigmath.refine.rounds"] += 1
                last[0] = bits
                return compute(bits)
            try:
                return refine(round_, *args, **kwargs)
            finally:
                tracer._note_max("bigmath.refine.final_bits_max", last[0])
        return counted_refine

    def _after_basis(self, result) -> None:
        self._note_max("succinct.coprime_basis.basis_size_max", len(result[0]))

    def _after_linear_form(self, result) -> None:
        _, refined, floor = result
        if not refined:
            self.counts["succinct.sign_linear_form.structural"] += 1
        self._note_max("succinct.baker.required_bits_max", floor.required_bits)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        self.missing = []
        targets = [(m, a, n, self._span_wrapper) for m, a, n in SPANS] + \
                  [(m, a, n, self._counter_wrapper) for m, a, n in COUNTERS]
        try:
            for module, attr, name, make in targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                holder, key, original = found
                wrapper = make(name, original)
                if holder is not sys.modules[module]:
                    self._patch(holder, key, original, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "trisep" or mod_name.startswith("trisep."):
                        for k, v in list(vars(mod).items()):
                            if v is original:
                                self._patch(mod, k, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, holder, key: str, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self.patched.append((holder, key, original))

    def uninstall(self) -> None:
        while self.patched:
            holder, key, original = self.patched.pop()
            setattr(holder, key, original)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, requests: int, cache_hits: int, cache_misses: int
                      ) -> Dict[str, Tuple[float, str]]:
        """Every LAYER_METRICS entry; calls and self time are per request."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for _, _, _, name, _, _, own in self.spans:
            calls[name] += 1
            self_ns[name] += own
        per = 1.0 / max(requests, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "bigmath.ln_cache.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
            "bigmath.refine.rounds": self.counts["bigmath.refine.rounds"] * per,
            "dyadic.mul.calls": self.counts["dyadic.mul"] * per,
            "trinomial.sign_at_positive.exact_ratio": ratio(
                self.counts["trinomial.exact_numerator"], calls["trinomial.sign_at_positive"]),
            "isolate.bisect.steps": self.counts["isolate.eval_sign"] * per,
            "trinomial.cmp_power_vs_ratio.calls":
                self.counts["trinomial.cmp_power_vs_ratio"] * per,
            "succinct.sign_linear_form.structural_ratio": ratio(
                self.counts["succinct.sign_linear_form.structural"],
                calls["succinct.sign_linear_form"]),
        }
        out = {}
        for name, unit in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if name in values:
                value = values[name]
            elif kind == "calls":
                value = calls[layer] * per
            elif kind == "self_s":
                value = self_ns[layer] * per / 1e9
            else:
                value = self.maxima.get(name, 0)
            out[name] = (float(value), unit)
        return out
