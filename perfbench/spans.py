"""Span tracing of the package's layers, installed from outside the package.

The tracer replaces public functions and methods of ``sumset_ramsey`` with
thin wrappers that record a span per call: name, start, end, parent span and
the id of the benchmark query that caused it.  Spans stay in memory and are
written out once the run ends.  No source file of the package is touched;
``Tracer.installed()`` restores every original attribute on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        # span i: names[name_id[i]], start[i], end[i], parent[i] (-1 at top), query[i];
        # columns of typed arrays keep a million spans in tens of megabytes
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.query_id = array("q")
        self.counts: Counter = Counter()
        self.query = -1
        self.r = 0  # survivor threshold of the current query (useful_ratio)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records a span; count(tracer, args, result) adds counters."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, perf = self._stack, time.perf_counter
        name_id, start, end, parent, query_id = self.name_id, self.start, self.end, self.parent, self.query_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            query_id.append(self.query)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def counter(self, fn, count):
        """Wrap fn with a counter only, for functions too hot to span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(self, args)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, package: str = "sumset_ramsey"):
        """Patch every layer listed in LAYERS; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        try:
            for target, name, kind, count in LAYERS:
                mod_name, _, attr = target.rpartition(":")
                owner = sys.modules[f"{package}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner, attr = getattr(owner, cls_name), meth
                    places = [owner]
                else:
                    # rebind the function wherever the package imported it
                    orig = getattr(owner, attr)
                    places = [m for m in modules if getattr(m, attr, None) is orig]
                orig = owner.__dict__[attr]
                wrapped = self.span(name, orig, count) if kind == "span" else self.counter(orig, count)
                for place in places:
                    saved.append((place, attr, place.__dict__[attr]))
                    setattr(place, attr, wrapped)
            yield self
        finally:
            for place, attr, orig in reversed(saved):
                setattr(place, attr, orig)

    # -- analysis ---------------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, inclusive busy_s and self_s per span name.

        self_s is a span's duration minus the time its direct children cover;
        busy_s counts only the outermost span of a recursive chain, so nested
        calls of the same name are not counted twice.
        """
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                row["busy_s"] += dur[i]
        return out

    def top_level_s(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self)) if self.parent[i] < 0)

    def write(self, path: Path) -> None:
        """One span per line: query, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("query,name,start,end,parent\n")
            for i in range(len(self)):
                fh.write(f"{self.query_id[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


def _n_points(tracer, args, result):
    tracer.counts["coloring.colors_at.points"] += len(args[1])


def _fallback_points(tracer, args):
    tracer.counts["coloring.colors_at.fallback_points"] += len(args[1])


def _window_positions(tracer, args, result):
    tracer.counts["coloring.window.positions"] += int(args[1])


def _bad_set_positions(tracer, args, result):
    tracer.counts["search.bad_set.positions"] += int(args[4])


def _survivors_useful(tracer, args, result):
    if result.bit_count() >= tracer.r:
        tracer.counts["search.survivor_set.useful"] += 1


def _poly_eval(tracer, args):
    tracer.counts["poly.eval.calls"] += 1


# (module:attribute or module:Class.method, span name, "span" | "count", counter)
LAYERS = [
    ("poly:IntPolynomial.__call__", "poly.eval", "count", _poly_eval),
    ("poly:psi_eval", "poly.psi_eval", "span", None),
    ("poly:psi_prime", "poly.psi_prime", "span", None),
    ("poly:a_star", "poly.a_star", "span", None),
    ("coloring:Coloring.window", "coloring.window", "span", _window_positions),
    ("coloring:ColorWindow.mask", "coloring.ColorWindow.mask", "span", None),
    # the base-class method is the scalar loop BreakpointColoring falls back to
    ("coloring:Coloring.colors_at", "coloring.colors_at.fallback", "count", _fallback_points),
    ("coloring:BreakpointColoring.colors_at", "coloring.colors_at", "span", _n_points),
    ("coloring:SeededRandomColoring.colors_at", "coloring.colors_at", "span", _n_points),
    ("coloring:PeriodicColoring.colors_at", "coloring.colors_at", "span", _n_points),
    ("coloring:ExplicitColoring.colors_at", "coloring.colors_at", "span", _n_points),
    ("coloring:RecursiveLogColoring.colors_at", "coloring.colors_at", "span", _n_points),
    ("coloring:RecursiveLogColoring.in_level_set", "coloring.in_level_set", "span", None),
    ("coloring:check_admissible", "coloring.check_admissible", "span", None),
    ("coloring:find_admissible_a0", "coloring.find_admissible_a0", "span", None),
    ("coloring:recursive_log_coloring", "coloring.recursive_log_coloring", "span", None),
    ("search:greedy_search", "search.greedy_search", "span", None),
    ("search:exhaustive_search", "search.exhaustive_search", "span", None),
    ("search:survivor_set", "search.survivor_set", "span", _survivors_useful),
    ("search:bad_set", "search.bad_set", "span", _bad_set_positions),
    ("search:gowers_threshold", "search.gowers_threshold", "span", None),
    ("dynamics:word_from_coloring", "dynamics.word_from_coloring", "span", None),
    ("dynamics:return_set", "dynamics.return_set", "span", None),
    ("dynamics:dichotomy_detect", "dynamics.dichotomy_detect", "span", None),
    ("dynamics:density_profile", "dynamics.density_profile", "span", None),
    ("witness:build_witness", "witness.build_witness", "span", None),
    ("witness:check_sumset_identity", "witness.check_sumset_identity", "span", None),
    ("cli:parse_coloring_spec", "cli.parse_coloring_spec", "span", None),
    ("cli:run", "cli.run", "span", None),
]
