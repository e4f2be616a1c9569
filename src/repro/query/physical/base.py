"""Physical operator base class and execution context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.catalog import Catalog
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.eval import EvalContext
from repro.query.tuples import QTuple
from repro.summaries.maintenance import SummaryManager


@dataclass
class ExecContext:
    """Everything an operator may need at runtime.

    ``propagate`` mirrors the engine's summary-propagation switch: when off,
    results carry no summary objects and access paths may skip the
    SummaryStorage entirely (the Figure 13 "NoPropagation" cases).
    """

    catalog: Catalog
    manager: SummaryManager
    propagate: bool = True
    #: (table lowercase, instance) -> SummaryBTreeIndex
    summary_indexes: dict = field(default_factory=dict)
    #: (table lowercase, instance) -> BaselineClassifierIndex
    baseline_indexes: dict = field(default_factory=dict)
    #: (table lowercase, instance) -> NormalizedSnippetReplica (Figure 12)
    normalized_replicas: dict = field(default_factory=dict)
    #: (table lowercase, instance) -> TrigramKeywordIndex
    keyword_indexes: dict = field(default_factory=dict)
    eval_ctx: EvalContext = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.eval_ctx is None:
            self.eval_ctx = EvalContext(manager=self.manager)

    def summary_index(self, table: str, instance: str):
        return self.summary_indexes.get((table.lower(), instance))

    def baseline_index(self, table: str, instance: str):
        return self.baseline_indexes.get((table.lower(), instance))

    def normalized_replica(self, table: str, instance: str):
        return self.normalized_replicas.get((table.lower(), instance))

    def keyword_index(self, table: str, instance: str):
        return self.keyword_indexes.get((table.lower(), instance))


class PhysicalOperator:
    """Base class: every operator is an iterator of column batches.

    :meth:`batches` is the one pull protocol. It runs the operator's single
    body and transparently instruments the stream when an
    :class:`~repro.obs.profile.PlanProfiler` is attached (EXPLAIN ANALYZE)
    and/or checkpoints it when an
    :class:`~repro.resilience.context.ExecutionContext` is attached
    (deadlines, cooperative cancellation). The indirection keeps the
    operators themselves free of counting and checkpoint logic.

    An operator implements exactly one body:

    * vectorized operators (scans, filters, projection, limit) override
      :meth:`_produce_batches` and move whole
      :class:`~repro.query.batch.Batch` chunks;
    * row-logic operators (joins, sort, group, distinct, F, the summary
      index scans) implement :meth:`_produce` over their children's
      :meth:`rows`, and the default :meth:`_produce_batches` chunks their
      output. That default is a generator, so the row body first runs
      inside this operator's instrumented window.

    :meth:`rows` is a thin flattening view of :meth:`batches`.
    """

    #: Set per-instance by PlanProfiler.attach(); None = unprofiled run.
    profiler = None
    #: Set per-instance by ExecutionContext.attach(); None = no deadline or
    #: cancellation checkpoints.
    runtime = None
    #: Set by the Database on a plan's root: materialize every row view of
    #: an outgoing batch *inside* this operator's instrumented iterator, so
    #: lazy summary reads are charged to the plan (keeping the profiler's
    #: sum-to-run-totals invariant) and covered by deadline checkpoints.
    materialize_output = False

    def _produce(self) -> Iterator[QTuple]:
        raise NotImplementedError

    def _produce_batches(self) -> Iterator[Batch]:
        yield from batches_from_rows(self._produce())

    def batches(self) -> Iterator[Batch]:
        inner = self._produce_batches()
        if self.materialize_output:
            inner = self._materialized(inner)
        if self.profiler is not None:
            inner = self.profiler.wrap(self, inner)
        if self.runtime is not None:
            # Runtime checks go outermost so a checkpoint covers the
            # profiler's bookkeeping too.
            inner = self.runtime.wrap(self, inner)
        return inner

    def rows(self) -> Iterator[QTuple]:
        return rows_from_batches(self.batches())

    @staticmethod
    def _materialized(inner):
        for batch in inner:
            batch.to_rows()
            yield batch

    def __iter__(self) -> Iterator[QTuple]:
        return self.rows()

    @property
    def children(self) -> list["PhysicalOperator"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)
