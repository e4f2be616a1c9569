"""Column-batch execution (DESIGN.md §5f).

The reference oracle for the vectorized predicates is scalar
:func:`~repro.query.eval.evaluate`: on real scan batches,
``batch_predicate_mask`` must agree with it row for row, across label
comparisons, data comparisons, ``LIKE``, ``containsUnion`` and any
``And``/``Or``/``Not`` nesting of them. Deadlines and cancellation must
keep firing at batch boundaries on every operator shape.

Also unit-covers the :mod:`repro.query.batch` carriers and the storage
layer's raw ``label_count`` fast path against its full-parse oracle.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryCancelledError, QueryError, QueryTimeoutError
from repro.query.batch import Batch, batches_from_rows, rows_from_batches
from repro.query.eval import batch_predicate_mask, evaluate
from repro.query.parser import parse_sql
from repro.query.physical import SeqScan
from repro.query.tuples import QTuple
from repro.resilience import ExecutionContext
from repro.summaries.storage import _parsed_label_count, _raw_label_count
from repro.workload.generator import WorkloadConfig, build_database
from tests.test_explain_analyze import analyze_with_totals, assert_attribution

SP_QUERY = (
    "Select common_name From birds r Where "
    "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0"
)

# One query per operator shape (mirrors test_resilience.OPERATOR_QUERIES):
# seq scan, data filter, summary predicates (>, =), summary order-by,
# group/aggregate, distinct, limit, data join, join + summary predicate.
OPERATOR_QUERIES = [
    "Select common_name From birds r",
    "Select common_name From birds r Where r.aou_id > 10005",
    SP_QUERY,
    ("Select common_name From birds r Where "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 3"),
    ("Select common_name From birds r Order By "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"),
    "Select family, count(*) From birds Group By family",
    "Select Distinct family From birds",
    "Select common_name From birds Limit 5",
    ("Select r.common_name, s.synonym From birds r, synonyms s "
     "Where r.oid = s.bird_id"),
    ("Select r.common_name From birds r, synonyms s "
     "Where r.oid = s.bird_id And "
     "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0"),
]

ACCESS_PATHS = {
    "noindex": ("none", False),
    "summary_btree": ("summary_btree", False),
    "baseline": ("baseline", False),
    "baseline_normalized": ("baseline", True),
}


@pytest.fixture(scope="module")
def db():
    database = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6,
    ))
    database.create_normalized_replicas("birds")
    return database


def snapshot(result):
    """Observable output: values + summary displays, in result order."""
    return [
        (
            tuple(result.columns),
            tuple(str(v) for v in t.values),
            json.dumps(t.merged_summary_set().to_display(),
                       sort_keys=True, default=str),
        )
        for t in result.tuples
    ]


class TestAccessPathAgreement:
    @pytest.mark.parametrize("mode", list(ACCESS_PATHS))
    def test_access_paths_agree(self, db, mode):
        # Every access path returns the heap scan's rows with the same
        # propagated summaries (the normalized Baseline path rebuilds them).
        scheme, normalized = ACCESS_PATHS[mode]
        try:
            db.options.index_scheme = "none"
            reference = sorted(snapshot(db.sql(SP_QUERY)))
            db.options.index_scheme = scheme
            db.options.normalized_propagation = normalized
            db.options.force_access = "index" if scheme != "none" else None
            got = sorted(snapshot(db.sql(SP_QUERY)))
        finally:
            db.options.index_scheme = "summary_btree"
            db.options.normalized_propagation = False
            db.options.force_access = None
        assert got == reference


class TestOperatorShapes:
    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_explain_analyze_invariants(self, db, sql):
        ops, totals = analyze_with_totals(db, sql)
        assert_attribution(ops, totals)
        assert ops[0]["rows"] == len(db.sql(sql))


class TestBatchModeResilience:
    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_zero_timeout_trips_first_checkpoint(self, db, sql):
        with pytest.raises(QueryTimeoutError) as err:
            db.execute(sql, timeout=0)
        assert err.value.partial["checks"] >= 1

    @pytest.mark.parametrize("sql", OPERATOR_QUERIES)
    def test_pre_cancelled_context_stops_every_plan(self, db, sql):
        physical, _logical, _cost = db.planner.plan(parse_sql(sql))
        ctx = ExecutionContext()
        ctx.attach(physical)
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            list(physical.batches())

    def test_deadline_fires_at_batch_boundary(self, db):
        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        ctx = ExecutionContext(timeout=10.0, clock=clock)
        ctx.attach(physical)
        batches = physical.batches()
        first = next(batches)
        assert len(first) >= 1
        clock.now = 11.0
        with pytest.raises(QueryTimeoutError) as err:
            list(batches)
        assert err.value.partial["rows"] >= 1

    def test_cancel_mid_stream(self, db):
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        ctx = ExecutionContext()
        ctx.attach(physical)
        batches = physical.batches()
        next(batches)
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            list(batches)


# -- the scalar oracle for vectorized predicates ------------------------------------

CMP_OPS = ["=", "<>", "<", "<=", ">", ">="]
LABEL_EXPR = "r.$.getSummaryObject('ClassBird1').getLabelValue"
KEYWORDS = ["volunteer", "juvenile", "coast", "survey", "infection", "zebra"]

label_comparisons = st.builds(
    "{}('{}') {} {}".format,
    st.just(LABEL_EXPR),
    st.sampled_from(["Disease", "Anatomy", "Behavior", "Other"]),
    st.sampled_from(CMP_OPS),
    st.integers(0, 10),
)
data_comparisons = st.one_of(
    st.builds("r.aou_id {} {}".format,
              st.sampled_from(CMP_OPS), st.integers(9995, 10045)),
    st.builds("{} {} r.aou_id".format,
              st.integers(9995, 10045), st.sampled_from(CMP_OPS)),
    st.builds("r.wingspan_cm {} {}".format,
              st.sampled_from(CMP_OPS),
              st.sampled_from(["50", "99.9", "150.5"])),
    st.builds("r.family {} '{}'".format,
              st.sampled_from(CMP_OPS),
              st.sampled_from(["Anatidae", "Laridae", "Zz"])),
    st.builds("r.aou_id {} r.wingspan_cm".format, st.sampled_from(CMP_OPS)),
)
likes = st.builds(
    "r.{} Like '{}'".format,
    st.sampled_from(["common_name", "family", "conservation"]),
    st.sampled_from(["%a%", "A%", "%idae", "_a%", "%bird 1_", "%"]),
)
contains_unions = st.builds(
    lambda kws: "r.$.getSummaryObject('TextSummary1').containsUnion({})"
    .format(", ".join(f"'{k}'" for k in kws)),
    st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3),
)
predicates = st.recursive(
    st.one_of(label_comparisons, data_comparisons, likes, contains_unions),
    lambda inner: st.one_of(
        st.builds("({} And {})".format, inner, inner),
        st.builds("({} Or {})".format, inner, inner),
        st.builds("Not ({})".format, inner),
    ),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def oracle_db():
    database = build_database(WorkloadConfig(
        num_birds=40, annotations_per_tuple=10, indexes="none",
        cell_fraction=0.0, seed=11,
    ))
    # NULL data values and a tuple without any summaries.
    database.insert("birds", {"common_name": "nulls", "aou_id": None})
    return database


class TestPredicateOracle:
    """``batch_predicate_mask`` equals scalar ``evaluate`` on every row."""

    @given(predicate=predicates, keep=st.lists(st.booleans(), min_size=64,
                                               max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_mask_matches_scalar_evaluate(self, oracle_db, predicate, keep):
        expr = parse_sql(f"Select * From birds r Where {predicate}").where
        ctx = oracle_db.planner.exec_context()
        for batch in SeqScan(ctx, "birds", "r").batches():
            # Fresh lazy batches, and sub-batches as a filter leaves them.
            subset = batch.take(
                [i for i in range(len(batch)) if keep[i % len(keep)]]
            )
            for candidate in (batch, subset):
                mask = batch_predicate_mask(expr, candidate, ctx.eval_ctx)
                expected = [
                    bool(evaluate(expr, candidate.row(i), ctx.eval_ctx))
                    for i in range(len(candidate))
                ]
                assert mask.tolist() == expected, predicate


class TestLabelCountFastPath:
    def test_raw_scan_matches_full_parse_on_every_stored_row(self, db):
        storage = db.manager.storage_for("birds")
        checked = 0
        for oid in range(1, len(db.catalog.table("birds")) + 1):
            rid = storage._rid_for(oid)
            if rid is None:
                continue
            data = storage.heap.read(rid)
            payload = json.loads(bytes(data))
            for instance in ("ClassBird1", "TextSummary1", "NoSuch"):
                for label in ("Disease", "Behavior", "Anatomy", "Other",
                              "NoLabel"):
                    assert _raw_label_count(data, instance, label) == \
                        _parsed_label_count(payload, instance, label), \
                        (oid, instance, label)
                    checked += 1
        assert checked > 0

    def test_label_count_counts_match_materialized_objects(self, db):
        storage = db.manager.storage_for("birds")
        hits = 0
        for oid in range(1, len(db.catalog.table("birds")) + 1):
            status, value = storage.label_count(
                oid, "ClassBird1", "Disease"
            )
            sset = db.manager.summary_set_for("birds", oid)
            obj = sset.get_summary_object("ClassBird1")
            expected = None if obj is None else obj.get_label_value("Disease")
            if status == "ok":
                assert value == expected
                hits += 1
            else:
                assert status == "fallback"
        assert hits > 0  # the fast path answered real rows


def _plain(values, columns=("a", "b")):
    return QTuple(list(columns), list(values), {}, {})


class TestOnePullProtocol:
    def test_every_operator_has_exactly_one_body(self):
        import repro.query.physical as physical
        from repro.query.physical.base import PhysicalOperator

        for name in physical.__all__:
            op = getattr(physical, name)
            if not (isinstance(op, type) and issubclass(op, PhysicalOperator)
                    and op is not PhysicalOperator):
                continue
            bodies = {
                method for klass in op.__mro__
                if klass is not PhysicalOperator
                for method in ("_produce", "_produce_batches")
                if method in vars(klass)
            }
            assert len(bodies) == 1, (name, bodies)


class TestBatchCarrier:
    def test_from_rows_hands_back_original_tuples(self):
        rows = [_plain([i, i * 2]) for i in range(5)]
        batch = Batch.from_rows(rows)
        assert len(batch) == 5
        assert batch.to_rows() is rows
        assert batch.row(3) is rows[3]
        assert batch.column_values("b") == [0, 2, 4, 6, 8]

    def test_column_resolution_matches_qtuple_get(self):
        rows = [QTuple(["r.x", "s.y"], [1, 2], {}, {})]
        batch = Batch.from_rows(rows)
        assert batch.column_values("r.x") == [1]
        assert batch.column_values("y") == [2]  # unique suffix
        with pytest.raises(QueryError):
            batch.column_values("z")
        rows = [QTuple(["r.x", "s.x"], [1, 2], {}, {})]
        with pytest.raises(QueryError):
            Batch.from_rows(rows).column_values("x")

    def test_take_subsets_rows_and_memo(self):
        rows = [_plain([i, -i]) for i in range(6)]
        batch = Batch.from_rows(rows)
        taken = batch.take([1, 3, 5])
        assert len(taken) == 3
        assert taken.column_values("a") == [1, 3, 5]
        assert taken.row(1) is rows[3]

    def test_chunking_respects_batch_rows_and_shape_changes(self):
        rows = [_plain([i, i]) for i in range(150)]
        sizes = [len(b) for b in batches_from_rows(rows)]
        assert sizes == [64, 64, 22]
        mixed = [_plain([1, 2]), QTuple(["c"], [3], {}, {}), _plain([4, 5])]
        chunks = list(batches_from_rows(mixed))
        assert [b.columns for b in chunks] == [["a", "b"], ["c"], ["a", "b"]]
        assert [r.values for r in rows_from_batches(chunks)] == \
            [[1, 2], [3], [4, 5]]

    def test_scan_row_views_are_memoized_and_share_summary_sets(self, db):
        physical, _logical, _cost = db.planner.plan(parse_sql(SP_QUERY))
        scan = physical
        while scan.children:
            scan = scan.children[0]
        batch = next(scan.batches())
        assert batch.row(0) is batch.row(0)
        taken = batch.take([0, 1])
        # The taken sub-batch reuses the already-materialized summary sets.
        assert taken.row(0).summary_sets == batch.row(0).summary_sets
