"""Spans and counters at the kacvmrt layer boundaries, installed from outside.

`Tracer.install()` replaces each public function named in SPANNED with a
wrapper that records a span (name, start, end, parent span, op id), and
the `neighbors` / `edge_between` methods of DynkinDiagram and AffineDiagram
with wrappers that only count calls (they run hundreds of thousands of
times per sweep round, so spans there would cost more than the work they
time).  Modules bind names with `from .x import y`, so the wrapper
replaces the binding in every kacvmrt module that holds the original, not
only the defining one.  Spans stay in memory; `dump()` writes them once,
at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

# (module, function) pairs that get a span.  The span is named
# "<module>.<function>", the layer being the package module.
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("roots", "positive_roots"),
    ("affine", "affine_diagram"),
    ("affine", "kac_labels"),
    ("diagrams", "classify"),
    ("diagrams", "parabolic_dimension"),
    ("diagrams", "find_isomorphism"),
    ("atlas", "enumerate_entries"),
    ("atlas", "lookup"),
    ("engine", "z_orbit_diagram"),
    ("engine", "vmrt"),
    ("engine", "identify"),
    ("engine", "fold_consistency"),
    ("engine", "contact_grading_check"),
    ("render", "to_canonical_text"),
    ("render", "parse"),
    ("render", "render"),
    ("verify", "run_all"),
    ("verify", "check_golden_tables"),
    ("verify", "check_exceptional_dimensions"),
    ("verify", "check_dimension_formula"),
    ("verify", "check_folding"),
    ("verify", "check_contact_grading"),
    ("verify", "check_kac_markings"),
    ("verify", "check_component_structure"),
    ("verify", "check_engine_selfchecks"),
    ("cli", "main"),
)

VERIFY_CHECKS = tuple(name for mod, name in SPANNED if mod == "verify" and name.startswith("check_"))

# (module, class, method) triples that only count calls, under the
# counter name "diagrams.<method>" for both classes.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("diagrams", "DynkinDiagram", "neighbors"),
    ("diagrams", "DynkinDiagram", "edge_between"),
    ("affine", "AffineDiagram", "neighbors"),
    ("affine", "AffineDiagram", "edge_between"),
)

# A span: (name, start, end, parent index or -1, op id).
Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op = -1
        self.enabled = False
        self._stack: List[int] = []
        self._cached = None  # the lru_cache object behind roots.positive_roots

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every SPANNED function and COUNTED method, once per process."""
        import importlib

        mods = {m: importlib.import_module(f"kacvmrt.{m}")
                for m in {m for m, _ in SPANNED} | {m for m, _, _ in COUNTED}}
        self._cached = mods["roots"].positive_roots
        for mod, name in SPANNED:
            original = getattr(mods[mod], name)
            wrapper = self._span_wrapper(f"{mod}.{name}", original)
            for loaded in [m for n, m in sys.modules.items()
                           if n == "kacvmrt" or n.startswith("kacvmrt.")]:
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
        for mod, cls_name, meth in COUNTED:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, self._count_wrapper(f"diagrams.{meth}", getattr(cls, meth)))

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)  # placeholder keeps start order
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cache_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the positive_roots cache so far."""
        info = self._cached.cache_info()
        return info.hits, info.misses

    # -- output -------------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: summed self time, summed inclusive time, call count.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so that is the part of the
    interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        total_s[name] += end - start
        calls[name] += 1
    return self_s, total_s, calls
