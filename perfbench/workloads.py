"""The three served workloads and their seeded request streams.

Each workload fixes a database size (birds x annotations per tuple) and a
buffer pool, so it loads a different layer of the engine:

* ``hot-reads``    -- everything fits in the pool; short requests, so the
                      server, session, parse, plan and summary decode
                      carry the time.
* ``cold-scans``   -- the data is about ten times the pool; summary
                      predicates evaluated by SeqScan, so the buffer pool,
                      heap and record decode carry the time.
* ``annotate-mix`` -- ANNOTATE beside point read-backs with periodic
                      checkpoints, so summary maintenance, mining, the
                      Summary-BTree, the WAL and 2PL locks carry the time.

A stream is a repetition of *cycles*.  Every cycle holds the same
multiset of request classes in a seeded order, so any run of whole cycles
has exactly the workload's mix; the seed picks the order, the OIDs, the
labels, the keywords and the annotation texts.  Every parameter is drawn
from a small seeded pool so the expected answer of every read can be
computed in-process before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLASS_EXPR = "$.getSummaryObject('ClassBird1').getLabelValue"
SNIPPET_EXPR = "$.getSummaryObject('TextSummary1')"
LABELS = ("Disease", "Anatomy", "Behavior", "Other")
#: share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop saturation phase.
OPEN_SHARE = 0.8
#: keyword pairs for containsUnion; each pair shares one category pool and
#: nearly every tuple matches, so every pair costs about the same.
KEYWORD_PAIRS = (
    ("wing", "feather"), ("migration", "nesting"), ("virus", "outbreak"),
)


@dataclass(frozen=True)
class Workload:
    """Sizes, mix and fixed open-loop rate of one workload."""

    name: str
    birds: int
    ann_per_tuple: int
    pool_pages: int
    #: request classes of one cycle, in the proportions of the mix
    cycle: tuple[str, ...]
    #: the classes behind ``main_p50_ms`` and ``second_p50_ms``
    slots: tuple[str, str]
    #: open-loop offered load in requests/s: a constant, about half the
    #: saturation throughput measured on a 2-core x86 box at the commit
    #: that introduced this benchmark, so a faster engine sees the same
    #: offered load.
    rate: float

    @property
    def cycle_len(self) -> int:
        return len(self.cycle)

    @property
    def writes(self) -> bool:
        return "annotate" in self.cycle


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hot-reads",
            birds=120, ann_per_tuple=50, pool_pages=8192,
            cycle=("point",) * 5 + ("select",) * 3 + ("zoom",) * 2,
            slots=("point", "select"),
            rate=30.0,
        ),
        Workload(
            name="cold-scans",
            birds=120, ann_per_tuple=50, pool_pages=24,
            cycle=("scan",) * 5 + ("text",) * 3 + ("join",) * 2,
            slots=("scan", "text"),
            rate=9.0,
        ),
        Workload(
            name="annotate-mix",
            birds=40, ann_per_tuple=200, pool_pages=8192,
            cycle=("annotate",) * 39 + ("point",) * 5 + ("zoom",) * 5
            + ("checkpoint",),
            slots=("annotate", "zoom"),
            rate=15.0,
        ),
    )
}


def workload_config(workload: Workload, seed: int, pool_pages=None):
    """The engine's :class:`WorkloadConfig` for one workload and seed."""
    from repro.workload.generator import WorkloadConfig

    return WorkloadConfig(
        num_birds=workload.birds,
        annotations_per_tuple=workload.ann_per_tuple,
        cell_fraction=0.0,
        seed=seed,
        buffer_pages=pool_pages or workload.pool_pages,
    )


@dataclass
class Request:
    """One generated request: a SQL statement, or the checkpoint op."""

    cls: str
    sql: str | None = None
    op: dict | None = None
    #: ANNOTATE, read-backs and point reads: the target OID.
    oid: int | None = None
    #: ANNOTATE: the annotation text.
    text: str | None = None
    #: ZOOM IN read-backs: the label zoomed into.
    label: str | None = None


def point_sql(oid: int) -> str:
    """OID point read with every ClassBird1 label count (a summary
    expression per label)."""
    items = ", ".join(f"r.{CLASS_EXPR}('{lab}')" for lab in LABELS)
    return f"Select r.oid, r.common_name, {items} From birds r " \
           f"Where r.oid = {oid}"


def zoom_sql(oid: int, label: str) -> str:
    """Zoom into the raw annotations behind one ClassBird1 label."""
    return f"ZOOM IN birds {oid} ClassBird1 '{label}'"


def _distribution(db, label: str) -> dict[int, int]:
    dist: dict[int, int] = {}
    for _oid, objects in db.manager.storage_for("birds").scan():
        value = dict(objects["ClassBird1"].rep()).get(label, 0)
        dist[value] = dist.get(value, 0) + 1
    return dist


def _eq_constant(dist: dict[int, int], share: float) -> int:
    total = sum(dist.values())
    return min(sorted(dist), key=lambda v: abs(dist[v] / total - share))


def _range(dist: dict[int, int], lo_share: float, share: float):
    """[lo, hi] over sorted label values covering about ``share`` of the
    tuples, starting after the lowest ``lo_share``."""
    total = sum(dist.values())
    covered, lo, hi = 0, None, None
    for value in sorted(dist):
        covered += dist[value]
        if lo is None and covered > lo_share * total:
            lo = value
        if lo is not None:
            hi = value
            if covered >= (lo_share + share) * total:
                break
    return lo, hi


def _read_pools(oids: list[int], db) -> dict[str, list[str]]:
    """Every read statement the stream can send, by class.  Selectivity
    constants come from the seeded database's label distributions, so
    result sizes (and costs) barely move from seed to seed."""
    dists = {lab: _distribution(db, lab) for lab in LABELS}
    select = "Select common_name From birds r Where "
    fig10 = [f"{select}r.{CLASS_EXPR}('{lab}') = "
             f"{_eq_constant(dists[lab], 0.01)}" for lab in LABELS]
    lo, hi = _range(dists["Anatomy"], 0.0, 0.05)
    fig11 = [f"{select}r.{CLASS_EXPR}('Anatomy') in [{lo}, {hi}] And "
             f"r.{SNIPPET_EXPR}.containsUnion('{a}', '{b}')"
             for a, b in KEYWORD_PAIRS[:2]]
    scans = []
    for lab in LABELS:
        lo, hi = _range(dists[lab], 0.05, 0.9)
        scans.append(f"{select}r.{CLASS_EXPR}('{lab}') in [{lo}, {hi}]")
    # §5 Example 4 over about a third of the tuples.
    _lo, threshold = _range(dists["Disease"], 0.0, 0.66)
    return {
        "point": [point_sql(oid) for oid in oids],
        # Fig-10 equality shapes twice as often as Fig-11 shapes.
        "select": fig10 * 2 + fig11,
        "zoom": [zoom_sql(oid, lab) for oid in oids for lab in LABELS],
        "scan": scans,
        "text": [f"{select}r.{SNIPPET_EXPR}.containsUnion('{a}', '{b}')"
                 for a, b in KEYWORD_PAIRS],
        "join": [
            "Select r.common_name, s.synonym From birds r, synonyms s "
            f"Where r.oid = s.bird_id And r.{CLASS_EXPR}('Disease') > "
            f"{threshold} Order By r.{CLASS_EXPR}('Disease')"
        ],
    }


class Stream:
    """Deterministic request stream of one workload for one seed.

    ``db`` is the in-process oracle database built from the same seed; it
    supplies the selectivity constants."""

    def __init__(self, workload: Workload, seed: int, db):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.oids = self.rng.sample(range(1, workload.birds + 1),
                                    min(48, workload.birds))
        #: class -> every statement of that class the stream may send
        self.pools = {cls: pool
                      for cls, pool in _read_pools(self.oids, db).items()
                      if cls in workload.cycle}
        #: OIDs annotated so far, latest last (read-back targets)
        self.recent: list[int] = []

    def cycles(self, n: int) -> list[Request]:
        """The next ``n`` cycles of requests."""
        out: list[Request] = []
        for _ in range(n):
            order = list(self.workload.cycle)
            self.rng.shuffle(order)
            if "checkpoint" in order:
                # The checkpoint sits mid-cycle, so checkpoints are evenly
                # spaced and a run that ends on a whole cycle leaves half
                # a cycle of writes in the WAL for recovery to replay.
                order.remove("checkpoint")
                order.insert(len(order) // 2, "checkpoint")
            # Every cycle's annotations have the same category mix and the
            # same number of texts long enough for a snippet (12%), so the
            # mining work per cycle does not move from seed to seed.
            n = order.count("annotate")
            shapes = [(LABELS[i % len(LABELS)], i < round(0.12 * n))
                      for i in range(n)]
            self.rng.shuffle(shapes)
            out.extend(self._make(cls, shapes) for cls in order)
        return out

    def _make(self, cls: str, shapes: list) -> Request:
        rng = self.rng
        if cls == "annotate":
            from repro.workload.generator import generate_annotation

            oid = rng.choice(self.oids)
            label, long_form = shapes.pop()
            text = generate_annotation(rng, label, long_form,
                                       min_chars=260 if long_form else 0)
            self.recent.append(oid)
            return Request(cls, sql=f"ANNOTATE birds {oid} '{text}'",
                           oid=oid, text=text)
        if cls == "checkpoint":
            return Request(cls, op={"op": "bench_checkpoint"})
        if self.workload.writes and cls in ("point", "zoom"):
            # Read back one of the last few tuples annotated.
            oid = rng.choice(self.recent[-8:] or self.oids)
            if cls == "point":
                return Request(cls, sql=point_sql(oid), oid=oid)
            label = rng.choice(LABELS)
            return Request(cls, sql=zoom_sql(oid, label), oid=oid,
                           label=label)
        k = rng.randrange(len(self.pools[cls]))
        oid = self.oids[k] if cls == "point" else None
        return Request(cls, sql=self.pools[cls][k], oid=oid)
