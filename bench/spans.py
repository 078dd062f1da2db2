"""Per-layer spans taken from outside qlocc.

Each hook replaces a public qlocc function by a timing wrapper in every
qlocc module namespace that holds it (the defining module and each module
that imported the name), so calls are caught where they are made. Spans
nest: a span's self time is its wall time minus the time of the spans
opened inside it. Everything is kept in memory and read out once at the
end of the run.

A hooked name that no longer exists is recorded as absent; its metrics are
reported as null and the run goes on.
"""

from __future__ import annotations

import hashlib
import sys
from time import perf_counter

# (metric prefix, defining module, attribute) for timed function spans
FUNCTION_HOOKS = (
    ("oplm.oplm_space", "qlocc.oplm", "oplm_space"),
    ("oplm.measurement_candidates", "qlocc.oplm", "measurement_candidates"),
    ("protocol.apply_outcome", "qlocc.protocol", "apply_outcome"),
    ("protocol.canonical_key", "qlocc.protocol", "canonical_key"),
    ("protocol.search", "qlocc.protocol", "search_distinguishing_protocol"),
    ("protocol.search", "qlocc.protocol", "activation_search"),
    ("protocol.replay", "qlocc.protocol", "verify_protocol"),
    ("protocol.replay", "qlocc.protocol", "certify_activation_protocol"),
    ("upb.check_unextendible", "qlocc.upb", "check_unextendible"),
    ("upb.numeric_extension_search", "qlocc.upb", "numeric_extension_search"),
    ("states.gram_check", "qlocc.states", "gram_check"),
    ("states.redundancy_check_whole_parties", "qlocc.states", "redundancy_check_whole_parties"),
    ("states.merge_parties", "qlocc.states", "merge_parties"),
    ("qset.parse_qset", "qlocc.qset", "parse_qset"),
    ("qset.serialize_qset", "qlocc.qset", "serialize_qset"),
    ("cli.main", "qlocc.cli", "main"),
    ("partitions.hidden_nonlocality_profile", "qlocc.partitions", "hidden_nonlocality_profile"),
    ("fixtures.build_fixture", "qlocc.fixtures", "build_fixture"),
)

# SetAnalyzer methods whose distinct entering keys count as visited nodes
VISIT_METHODS = ("distinguishable", "activation", "distinguishable_status")

# per_layer metric name -> unit; "s" metrics are self seconds
SPAN_METRICS = {
    "oplm.oplm_space": ("calls", "s"),
    "oplm.measurement_candidates": ("calls", "s", "out"),
    "protocol.apply_outcome": ("calls", "s"),
    "protocol.canonical_key": ("calls", "s", "distinct"),
    "protocol.search": ("calls", "self_s"),
    "protocol.replay": ("calls", "self_s"),
    "upb.check_unextendible": ("calls", "s", "nodes"),
    "upb.numeric_extension_search": ("calls", "s"),
    "states.gram_check": ("calls", "s"),
    "states.redundancy_check_whole_parties": ("calls", "s"),
    "states.merge_parties": ("calls", "s"),
    "qset.parse_qset": ("calls", "s"),
    "qset.serialize_qset": ("calls", "s"),
    "cli.main": ("calls", "s"),
    "partitions.hidden_nonlocality_profile": ("calls", "self_s"),
    "fixtures.build_fixture": ("calls", "s"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix, fields in SPAN_METRICS.items():
        for f in fields:
            units[f"{prefix}.{f}"] = "s" if f in ("s", "self_s") else "count"
    units["oplm.constraint_cells"] = "count"
    units["protocol.nodes_visited"] = "count"
    units["protocol.visited_ratio"] = "1"
    units["states.ket_constructed"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class _Span:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Installs the hooks, collects spans and counters, restores on remove()."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = {prefix: _Span() for prefix in SPAN_METRICS}
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self, keep=()) -> None:
        """Zero every span and counter except the spans named in `keep`."""
        for prefix, span in self.spans.items():
            if prefix not in keep:
                span.calls, span.self_s, span.incl_s = 0, 0.0, 0.0
        self.counts = {"out": 0, "nodes": 0, "constraint_cells": 0, "ket_constructed": 0}
        self.keys: set[bytes] = set()
        self.visited: set[bytes] = set()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for prefix, modname, attr in FUNCTION_HOOKS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.absent.add(prefix)
                continue
            wrapper = self._wrap(prefix, orig, _EXTRAS.get(attr))
            for name, m in list(sys.modules.items()):
                if (name == "qlocc" or name.startswith("qlocc.")) and getattr(m, attr, None) is orig:
                    self._patch(m, attr, wrapper)
        protocol = sys.modules.get("qlocc.protocol")
        analyzer = getattr(protocol, "SetAnalyzer", None)
        for meth in VISIT_METHODS:
            orig = getattr(analyzer, meth, None)
            if orig is None:
                self.absent.add("protocol.nodes_visited")
                continue
            self._patch(analyzer, meth, self._visit(orig))
        ket = getattr(sys.modules.get("qlocc.states"), "Ket", None)
        if ket is None or "__init__" not in vars(ket):
            self.absent.add("states.ket_constructed")
        else:
            self._patch(ket, "__init__", self._count_ket(ket.__init__))

    def remove(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    def _patch(self, obj, attr, new) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, prefix, fn, extra):
        span = self.spans[prefix]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.incl_s += dt
                span.self_s += dt - frame[0]
            if extra is not None:
                extra(self, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _visit(self, fn):
        def traced(analyzer, key, *args, **kwargs):
            self.visited.add(hashlib.sha1(key).digest())
            return fn(analyzer, key, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count_ket(self, fn):
        def traced(*args, **kwargs):
            self.counts["ket_constructed"] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- read-out -------------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Counts and self seconds by per-layer metric name; None if absent."""
        out: dict[str, float | int | None] = {}
        for prefix, fields in SPAN_METRICS.items():
            sp = self.spans[prefix]
            for f in fields:
                name = f"{prefix}.{f}"
                if prefix in self.absent:
                    out[name] = None
                elif f == "calls":
                    out[name] = sp.calls
                elif f in ("s", "self_s"):
                    out[name] = sp.self_s
                elif f == "distinct":
                    out[name] = len(self.keys)
                else:
                    out[name] = self.counts[f]
        out["oplm.constraint_cells"] = None if "oplm.oplm_space" in self.absent else self.counts["constraint_cells"]
        visited = None if "protocol.nodes_visited" in self.absent else len(self.visited)
        out["protocol.nodes_visited"] = visited
        distinct = out["protocol.canonical_key.distinct"]
        out["protocol.visited_ratio"] = None if visited is None or distinct is None else (visited / distinct if distinct else 0.0)
        out["states.ket_constructed"] = None if "states.ket_constructed" in self.absent else self.counts["ket_constructed"]
        return out

    def inclusive_seconds(self) -> dict[str, float]:
        return {p: sp.incl_s for p, sp in self.spans.items() if p not in self.absent}


# -- per-function extras: counts read off inputs and results ------------------------


def _oplm_extra(tr: Tracer, sp, args, kwargs):
    n = len(args[0]) if args else len(kwargs["s"])
    r = sp.support_dim
    tr.counts["constraint_cells"] += n * (n - 1) * r * r


def _candidates_extra(tr: Tracer, out, args, kwargs):
    tr.counts["out"] += len(out)


def _key_extra(tr: Tracer, key, args, kwargs):
    tr.keys.add(hashlib.sha1(key).digest())


def _upb_extra(tr: Tracer, verdict, args, kwargs):
    tr.counts["nodes"] += verdict.nodes_explored


_EXTRAS = {
    "oplm_space": _oplm_extra,
    "measurement_candidates": _candidates_extra,
    "canonical_key": _key_extra,
    "check_unextendible": _upb_extra,
}
