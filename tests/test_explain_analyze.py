"""EXPLAIN [ANALYZE] observability: the annotated plan tree, the
per-operator attribution invariant (exclusive counters are never negative
and sum exactly to the run's totals, on hand-picked and on fuzz-generated
plans), index-probe counters, and maintenance-event counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.core.database import QueryReport
from repro.errors import QueryError
from repro.workload.generator import WorkloadConfig, build_database
from tests.test_plan_fuzz import LABELS, build_query, predicates

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer", "Other"),
]
DISEASE = "$.getSummaryObject('C').getLabelValue('Disease')"


def build(buffer_pages: int = 64) -> Database:
    db = Database(buffer_pages=buffer_pages)
    db.create_table("t", [
        Column("name", ValueType.TEXT), Column("blob", ValueType.TEXT),
    ])
    db.create_classifier_instance("C", ["Disease", "Other"], SEEDS)
    db.sql("Alter Table t Add Indexable C")
    for i in range(30):
        oid = db.insert("t", {"name": f"n{i:02d}", "blob": "x" * 400})
        for _ in range(i % 5):
            db.add_annotation(
                "flu virus infection outbreak " + "filler " * 20,
                table="t", oid=oid,
            )
    db.analyze("t")
    return db


class TestExplain:
    def test_plain_explain_plans_without_executing(self):
        db = build()
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Select name From t r Where r.{DISEASE} >= 2")
        assert isinstance(report, QueryReport)
        assert report.analyzed is None
        assert report.execution == {}
        assert "-- logical --" not in ""  # guard against accidental run:
        # planning may touch catalog pages, but must not scan the heap
        assert db.disk.stats.delta(io_before).writes == 0
        text = str(report)
        assert "-- logical --" in text and "-- physical --" in text
        assert "-- analyze --" not in text

    def test_explain_rejects_non_select(self):
        db = build()
        with pytest.raises(Exception):
            db.sql("Explain Insert Into t (name, blob) Values ('x', 'y')")

    def test_explain_method_rejects_ddl(self):
        db = build()
        with pytest.raises(QueryError):
            db.explain("Create Table u (a int)")


class TestExplainAnalyze:
    def test_single_predicate_io_attribution_sums_to_run_totals(self):
        # The acceptance invariant: on a Figure-10-style single-predicate
        # summary query, the per-operator exclusive counters sum exactly to
        # the run's deltas (pool page accesses and disk reads/writes).
        db = build(buffer_pages=8)  # tiny pool so real disk reads happen
        db.pool.clear()  # cold cache: the first touches must hit disk
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Analyze {query}")
        io = db.disk.stats.delta(io_before)
        pages = db.pool.hits + db.pool.misses - pages_before
        ops = report.execution["operators"]
        assert ops and all(op["next_calls"] > 0 for op in ops)
        assert sum(op["self_pages"] for op in ops) == pages
        assert sum(op["self_reads"] for op in ops) == io.reads
        assert sum(op["self_writes"] for op in ops) == io.writes
        assert io.reads > 0  # the tiny pool forced actual disk traffic
        # inclusive time of the root bounds every child's
        assert all(op["self_time_s"] >= 0 for op in ops)

    def test_analyze_results_match_plain_execution(self):
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2 Order By name"
        expected = db.sql(query).column("name")
        report = db.sql(f"Explain Analyze {query}")
        assert report.result.column("name") == expected
        assert report.execution["rows"] == len(expected)
        root = report.execution["operators"][0]
        assert root["rows"] == len(expected)

    def test_analyze_renders_annotated_tree(self):
        db = build()
        report = db.sql(f"Explain Analyze Select name From t r Where r.{DISEASE} >= 2")
        text = str(report)
        assert "-- analyze --" in text
        assert "rows=" in report.analyzed and "pages=" in report.analyzed
        # the annotated tree mirrors the physical plan's operators
        physical_ops = [
            line.strip().split("(")[0]
            for line in report.physical.splitlines()
        ]
        for op in physical_ops:
            assert op in report.analyzed

    def test_summary_join_attribution(self):
        db = build(buffer_pages=16)
        db.create_table("syn", [
            Column("bird", ValueType.TEXT), Column("alias", ValueType.TEXT),
        ])
        db.create_index("syn", "bird")
        for i in range(30):
            db.insert("syn", {"bird": f"n{i:02d}", "alias": f"a{i}"})
        db.analyze("syn")
        query = (
            f"Select r.name, s.alias From t r, syn s "
            f"Where r.name = s.bird And r.{DISEASE} >= 2"
        )
        io_before = db.disk.stats.snapshot()
        pages_before = db.pool.hits + db.pool.misses
        report = db.sql(f"Explain Analyze {query}")
        io = db.disk.stats.delta(io_before)
        pages = db.pool.hits + db.pool.misses - pages_before
        ops = report.execution["operators"]
        assert any("Join" in op["label"] for op in ops)
        assert sum(op["self_pages"] for op in ops) == pages
        assert sum(op["self_reads"] for op in ops) == io.reads
        assert report.execution["rows"] == len(report.result)

    def test_profiler_detaches_after_run(self):
        # A profiled run must not leave instrumentation behind: the next
        # plain execution runs unwrapped (no stale attribution).
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        db.sql(f"Explain Analyze {query}")
        result = db.sql(query)
        assert "plan_analyzed" not in result.stats


class TestCounters:
    def test_summary_index_probe_counter(self):
        db = build()
        query = f"Select name From t r Where r.{DISEASE} >= 2"
        db.options.force_access = "index"
        try:
            before = db.metrics_snapshot()
            db.sql(query)
            delta = db.metrics_snapshot()
        finally:
            db.options.force_access = None
        probes = delta["index.summary.t.C.probes"] - before[
            "index.summary.t.C.probes"
        ]
        assert probes >= 1

    def test_maintenance_event_counters(self):
        db = build()
        before = db.metrics_snapshot()
        oid = db.insert("t", {"name": "late", "blob": "y"})
        db.add_annotation("flu virus infection", table="t", oid=oid)
        db.add_annotation("flu virus outbreak", table="t", oid=oid)
        after = db.metrics_snapshot()
        assert after["maint.annotation_add"] - before.get(
            "maint.annotation_add", 0
        ) == 2
        assert after["maint.on_summary_insert"] > before.get(
            "maint.on_summary_insert", 0
        )
        assert after["maint.on_summary_update"] > before.get(
            "maint.on_summary_update", 0
        )

    def test_reset_metrics_zeroes_everything(self):
        db = build()
        db.sql(f"Select name From t r Where r.{DISEASE} >= 2")
        db.reset_metrics()
        snap = db.metrics_snapshot()
        assert snap["pool.pages"] == 0
        assert snap["disk.reads"] == 0
        assert snap["index.summary.t.C.probes"] == 0

    def test_explain_analyze_reports_metric_delta(self):
        db = build()
        db.options.force_access = "index"
        try:
            report = db.sql(
                f"Explain Analyze Select name From t r Where r.{DISEASE} >= 2"
            )
        finally:
            db.options.force_access = None
        assert report.execution["metrics"].get(
            "index.summary.t.C.probes", 0
        ) >= 1


# -- the attribution invariant on every plan shape ----------------------------------

SELF_COUNTERS = ("pages", "hits", "misses", "reads", "writes")
ACCESS_MODES = [
    ("none", None, False),
    ("summary_btree", "index", False),
    ("baseline", "index", False),
    ("baseline", "index", True),
    ("summary_btree", None, False),
]


def analyze_with_totals(db: Database, query: str) -> tuple[list, dict]:
    """EXPLAIN ANALYZE ``query``; return its operator entries and the
    run's buffer-pool and disk deltas."""
    pool, io_stats = db.pool, db.disk.stats
    hits0, misses0 = pool.hits, pool.misses
    io_before = io_stats.snapshot()
    report = db.sql(f"Explain Analyze {query}")
    io = io_stats.delta(io_before)
    totals = {
        "hits": pool.hits - hits0,
        "misses": pool.misses - misses0,
        "reads": io.reads,
        "writes": io.writes,
    }
    totals["pages"] = totals["hits"] + totals["misses"]
    return report.execution["operators"], totals


def assert_attribution(ops: list, totals: dict) -> None:
    for name in SELF_COUNTERS:
        column = [op[f"self_{name}"] for op in ops]
        assert min(column) >= 0, (name, ops)
        assert sum(column) == totals[name], (name, totals, ops)


@pytest.fixture(scope="module")
def fuzz_db():
    database = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=20, indexes="both",
        cell_fraction=0.0, seed=6, buffer_pages=12,  # misses, reads, writes
    ))
    database.create_normalized_replicas("birds")
    return database


class TestAttributionInvariant:
    def test_nested_loop_join_drains_inner_inside_its_window(self):
        # The join materializes its inner side when first pulled; those
        # pages belong to the join's subtree, never to its parent.
        db = build_database(WorkloadConfig(
            num_birds=60, annotations_per_tuple=20, cell_fraction=0.0,
            seed=1,
        ))
        ops, totals = analyze_with_totals(
            db,
            "Select r.common_name, s.synonym From birds r, synonyms s "
            "Where r.oid = s.bird_id",
        )
        assert any(op["label"].startswith("NestedLoopJoin") for op in ops)
        assert_attribution(ops, totals)

    @given(
        preds=predicates,
        order_label=st.one_of(st.none(), st.sampled_from(LABELS)),
        descending=st.booleans(),
        limit=st.one_of(st.none(), st.integers(1, 10)),
        access=st.sampled_from(ACCESS_MODES),
    )
    @settings(max_examples=40, deadline=None)
    def test_self_counters_non_negative_and_sum_to_run(
        self, fuzz_db, preds, order_label, descending, limit, access
    ):
        scheme, force, normalized = access
        options = fuzz_db.options
        options.index_scheme = scheme
        options.force_access = force
        options.normalized_propagation = normalized
        try:
            ops, totals = analyze_with_totals(
                fuzz_db, build_query(preds, order_label, descending, limit)
            )
        finally:
            options.index_scheme = "summary_btree"
            options.force_access = None
            options.normalized_propagation = False
        assert_attribution(ops, totals)
