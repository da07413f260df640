"""Spans and exact operation counts for the traced benchmark run.

The library is traced from outside: each layer's public functions are
replaced by wrappers in every module namespace that holds them (modules
such as ``flowtile.pipeline`` and ``flowtile.cli`` import them by name, so
patching the defining module alone would miss those calls), and
``QuadReal``'s arithmetic and comparison methods get class-level counters.
Span statistics are aggregated in memory as they close: calls, self time
(span time minus time in child spans) and a per-span output measure.
Nothing here runs unless :meth:`Tracer.install` is called.
"""

from __future__ import annotations

import copy
import functools
import sys
import time
from contextlib import contextmanager

import flowtile.cli
import flowtile.generators
import flowtile.loe
import flowtile.pipeline
import flowtile.quadratic
import flowtile.tiles
import flowtile.windows


# (span name, owner, attribute).  The owner is a module for functions and a
# class for methods.
SPANS = [
    ("tiles.values_in", flowtile.tiles.DensityWitness, "values_in"),
    ("tiles.eps_dense", flowtile.tiles, "eps_dense"),
    ("tiles.enumerate_tileable", flowtile.tiles, "enumerate_tileable"),
    ("tiles.density_witness", flowtile.tiles, "density_witness"),
    ("windows.chain_classes", flowtile.windows, "chain_classes"),
    ("pipeline.build_schedule", flowtile.pipeline, "build_schedule"),
    ("pipeline.full_pipeline", flowtile.pipeline, "full_pipeline"),
    ("pipeline.build_rank_blocks", flowtile.pipeline, "build_rank_blocks"),
    ("pipeline.classify_section", flowtile.pipeline, "classify_section"),
    ("pipeline.sparse_tile", flowtile.pipeline, "sparse_tile"),
    ("pipeline.attach_witnesses", flowtile.pipeline, "attach_witnesses"),
    ("pipeline.verify_uniform_frequency", flowtile.pipeline,
     "verify_uniform_frequency"),
    ("pipeline.replay", flowtile.pipeline.PartitionWitness, "replay"),
    ("pipeline.to_json", flowtile.pipeline.TiledSection, "to_json"),
    ("pipeline.from_json", flowtile.pipeline.TiledSection, "from_json"),
    ("loe.match_equidense", flowtile.loe, "match_equidense"),
    ("loe.build_loe", flowtile.loe, "build_loe"),
    ("loe.verify_loe", flowtile.loe, "verify_loe"),
    ("generators.generate", flowtile.generators, "generate"),
    ("cli.verify", flowtile.cli, "cmd_verify"),
]

# output measures summed per span: span name -> (counter name, measure)
OUTPUTS = {
    "tiles.values_in": ("tiles.values_in.out", len),
    "tiles.enumerate_tileable": ("tiles.enumerate_tileable.out", len),
    "tiles.eps_dense": ("tiles.eps_dense.misses", lambda rep: 0 if rep.ok else 1),
    "loe.match_equidense": ("loe.match_equidense.stages", lambda st: len(st.stages)),
    "loe.build_loe": ("loe.residue",
                      lambda m: len(m.residue_src) + len(m.residue_dst)),
}

# counter name -> QuadReal methods it counts (reflected forms included)
QUAD_OPS = {
    "quadratic.add": ("__add__", "__radd__"),
    "quadratic.sub": ("__sub__", "__rsub__"),
    "quadratic.mul": ("__mul__", "__rmul__"),
    "quadratic.div": ("__truediv__", "__rtruediv__"),
    "quadratic.cmp": ("__lt__", "__eq__"),
}
PARSE = "quadratic.parse"


class Tracer:
    """Installs span wrappers and counters; restores the originals on
    :meth:`uninstall`.

    ``stats[name]`` is ``[calls, self_ns]`` per span; ``counts[name]`` is a
    one-element list, so wrappers bump it without a dict lookup.
    """

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> int:
        self._stack.append(0)
        return time.perf_counter_ns()

    def _leave(self, name: str, t0: int) -> None:
        dur = time.perf_counter_ns() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        st = self.stats.setdefault(name, [0, 0])
        st[0] += 1
        st[1] += dur - child

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._leave(name, t0)

    def _wrap_span(self, name, fn):
        tracer = self
        out_name, measure = OUTPUTS.get(name, (None, None))
        cell = self.counts.setdefault(out_name, [0]) if out_name else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, t0)
            if cell is not None:
                cell[0] += measure(result)
            return result

        return wrapper

    def _wrap_count(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name that holds ``original``."""
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        for name, owner, attr in SPANS:
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap_span(name, raw.__func__))
                else:
                    wrapped = self._wrap_span(name, raw)
                self._set(owner, attr, wrapped)
            else:
                self._replace_everywhere(raw, self._wrap_span(name, raw))
        quad_cls = flowtile.quadratic.QuadReal
        for name, methods in QUAD_OPS.items():
            for meth in methods:
                self._set(quad_cls, meth,
                          self._wrap_count(name, quad_cls.__dict__[meth]))
        parse = flowtile.quadratic.parse_quadreal
        self._replace_everywhere(parse, self._wrap_count(PARSE, parse))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- bookkeeping -----------------------------------------------------------

    def snapshot(self):
        return copy.deepcopy((self.stats, self.counts))

    @contextmanager
    def excluded(self):
        """Run the benchmark's own checks without charging them to any layer."""
        stats, counts = self.snapshot()
        try:
            yield
        finally:
            self.stats.clear()
            self.stats.update(stats)
            for name, cell in self.counts.items():
                cell[0] = counts[name][0]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0])[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0])[1] / 1e6

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]
