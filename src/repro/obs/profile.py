"""Per-operator execution profiling (the machinery behind EXPLAIN ANALYZE).

A :class:`PlanProfiler` attaches to a physical plan before execution.  Every
operator's batch iterator is then wrapped (see
:meth:`repro.query.physical.base.PhysicalOperator.batches`) so that each
``next()`` call — one batch pulled — charges to that operator:

* rows produced and ``next()`` (batch) calls,
* wall time,
* the buffer-pool (hits/misses) and disk (reads/writes) counter deltas
  observed across the call, and
* the summary-cache hit/miss deltas (when the database runs with a
  :class:`~repro.cache.SummaryCache` attached).

Measurements are *inclusive* while running — a join's ``next()`` contains
the work of the scans it pulls from — and converted to *exclusive* ("self")
numbers at report time by subtracting the children's inclusive totals.
Because every child batch is pulled from inside some ancestor's ``next()``,
the exclusive numbers of a plan tree sum exactly to the run's totals: the
per-operator page accesses add up to the buffer-pool delta and the
per-operator disk reads/writes add up to the run's :class:`IOStats` delta —
the invariant the Figure 10–13 access-path claims are read off of.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator


@dataclass
class OperatorStats:
    """Inclusive execution counters of one physical operator."""

    label: str
    rows: int = 0
    next_calls: int = 0
    wall_s: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def pages(self) -> int:
        """Logical page accesses (buffer-pool requests)."""
        return self.pool_hits + self.pool_misses


class PlanProfiler:
    """Charges execution work to the physical operators of one plan."""

    def __init__(self, pool, disk, cache=None) -> None:
        self.pool = pool
        self.disk = disk
        #: summary cache whose hit/miss counters are attributed per
        #: operator (None: the cache columns stay zero).
        self.cache = cache
        self.root = None
        self._stats: dict[int, OperatorStats] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, root) -> "PlanProfiler":
        """Register every operator of ``root``'s tree with this profiler."""
        self.root = root
        stack = [root]
        while stack:
            op = stack.pop()
            op.profiler = self
            self._stats[id(op)] = OperatorStats(op.label())
            stack.extend(op.children)
        return self

    def stats_for(self, op) -> OperatorStats:
        return self._stats[id(op)]

    def wrap(self, op, inner: Iterator) -> Iterator:
        """Instrumented pass-through over one operator's batch iterator:
        one charge per batch pulled, with ``rows`` advanced by the batch's
        row count and ``next_calls`` counting batch pulls."""
        stats = self._stats[id(op)]
        pool = self.pool
        io = self.disk.stats
        cache = self.cache
        while True:
            hits0, misses0 = pool.hits, pool.misses
            reads0, writes0 = io.reads, io.writes
            chits0 = cache.hits if cache is not None else 0
            cmisses0 = cache.misses if cache is not None else 0
            started = time.perf_counter()
            try:
                batch = next(inner)
            except StopIteration:
                self._charge(stats, started, hits0, misses0, reads0, writes0,
                             chits0, cmisses0)
                return
            self._charge(stats, started, hits0, misses0, reads0, writes0,
                         chits0, cmisses0)
            stats.rows += len(batch)
            yield batch

    def _charge(
        self,
        stats: OperatorStats,
        started: float,
        hits0: int,
        misses0: int,
        reads0: int,
        writes0: int,
        chits0: int = 0,
        cmisses0: int = 0,
    ) -> None:
        stats.wall_s += time.perf_counter() - started
        stats.next_calls += 1
        stats.pool_hits += self.pool.hits - hits0
        stats.pool_misses += self.pool.misses - misses0
        stats.disk_reads += self.disk.stats.reads - reads0
        stats.disk_writes += self.disk.stats.writes - writes0
        if self.cache is not None:
            stats.cache_hits += self.cache.hits - chits0
            stats.cache_misses += self.cache.misses - cmisses0

    # -- reporting ------------------------------------------------------------

    def summarize(self) -> list[dict]:
        """Pre-order list of per-operator entries with inclusive and
        exclusive ("self") counters."""
        assert self.root is not None, "profiler was never attached"
        out: list[dict] = []

        def visit(op, depth: int) -> None:
            s = self._stats[id(op)]
            kids = [self._stats[id(c)] for c in op.children]
            out.append({
                "label": s.label,
                "depth": depth,
                "rows": s.rows,
                "next_calls": s.next_calls,
                "time_s": s.wall_s,
                "pages": s.pages,
                "reads": s.disk_reads,
                "writes": s.disk_writes,
                "self_time_s": max(
                    s.wall_s - sum(k.wall_s for k in kids), 0.0
                ),
                "self_pages": s.pages - sum(k.pages for k in kids),
                "self_hits": s.pool_hits - sum(k.pool_hits for k in kids),
                "self_misses": s.pool_misses - sum(k.pool_misses for k in kids),
                "self_reads": s.disk_reads - sum(k.disk_reads for k in kids),
                "self_writes": s.disk_writes - sum(k.disk_writes for k in kids),
                "cache_hits": s.cache_hits,
                "cache_misses": s.cache_misses,
                "self_cache_hits":
                    s.cache_hits - sum(k.cache_hits for k in kids),
                "self_cache_misses":
                    s.cache_misses - sum(k.cache_misses for k in kids),
            })
            for child in op.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return out

    def render(self) -> str:
        """The annotated plan tree EXPLAIN ANALYZE prints."""
        lines = []
        for e in self.summarize():
            indent = "  " * e["depth"]
            line = (
                f"{indent}{e['label']}"
                f"  (rows={e['rows']} next={e['next_calls']}"
                f" self_ms={e['self_time_s'] * 1e3:.2f}"
                f" pages={e['self_pages']}"
                f" reads={e['self_reads']} writes={e['self_writes']}"
            )
            if e["self_cache_hits"] or e["self_cache_misses"]:
                line += (
                    f" cache={e['self_cache_hits']}/"
                    f"{e['self_cache_hits'] + e['self_cache_misses']}"
                )
            lines.append(line + ")")
        return "\n".join(lines)
