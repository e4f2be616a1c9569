"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hot-reads --seed 1 --seconds 10 \\
        --trace 0

The engine is imported from ``src/`` of the checkout.  One run:

1. builds the seeded database in-process (the oracle) and computes the
   expected answer of every read the stream can send;
2. starts the server (``serve.py``) in its own process ``SETUPS`` times,
   timing each from launch to the answer to its first request, and keeps
   the last one;
3. checkpoints once (image size per user byte);
4. ``--trace 0``: an open-loop phase at the workload's fixed rate, then a
   closed-loop saturation phase on two connections.
   ``--trace 1``: an untraced open-loop phase, then the same requests
   again with every layer entry point wrapped in spans;
5. SIGKILLs the server, recovers its image and WAL in-process, and checks
   every answer and every acknowledged annotation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's description and the per-class breakdown.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: server launches per run; ``setup_s`` is their median.
SETUPS = 3
#: recoveries per run; ``recover_s`` is their median.
RECOVERIES = 15
#: a run whose generator sent later than this (p99) is marked invalid.
GEN_LATE_LIMIT_MS = 10.0
#: seconds a server launch may take before the run fails.
LAUNCH_TIMEOUT = 120.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[str | None, float | None]:
    """The highest of p99, p95 and p90 with at least ten samples beyond
    it, as (name, value); (None, None) when there are too few samples."""
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", percentile(values, q)
    return None, None


# -- the server process -------------------------------------------------------


class ServerProcess:
    """One ``serve.py`` process; ``setup_s`` runs from launch to the
    answer to its first request."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.log = open(work / "server.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            env=env,
        )
        self.port = self._await_ready(started + LAUNCH_TIMEOUT)
        from repro.server import QueryClient

        with QueryClient(port=self.port, response_timeout=30) as probe:
            probe.health()
        self.setup_s = time.perf_counter() - started

    def _await_ready(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            chunk = os.read(self.proc.stdout.fileno(), 256) if ready else b""
            if not chunk:
                self.kill()
                log = (self.work / "server.log").read_text(errors="replace")
                raise RuntimeError(
                    f"server did not start:\n{log[-2000:]}")
            line += chunk
        return int(line.split()[1])

    def kill(self) -> None:
        """SIGKILL (no drain, no checkpoint) and wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.log.close()


# -- in-process oracle --------------------------------------------------------


def canonical(result) -> str:
    """Order-free form of a JSON-shaped result (row order is not part of
    a statement's answer unless it sorts on a selected column)."""
    if isinstance(result, dict):
        rows = sorted(json.dumps(r) for r in result["rows"])
        return json.dumps([result["columns"], result["row_count"], rows])
    if isinstance(result, list):
        return json.dumps(sorted(json.dumps(v) for v in result))
    return json.dumps(result)


class Oracle:
    """Expected answers computed in-process from the seed, before any
    timing.  The oracle keeps answers, not its database: a large heap in
    the generator process would put collector pauses into the latencies
    it measures."""

    def __init__(self, workload, seed: int):
        from repro.server.protocol import jsonable_result
        from repro.workload.generator import build_database
        from workloads import (
            LABELS, Stream, point_sql, workload_config, zoom_sql,
        )

        db = build_database(workload_config(workload, seed, pool_pages=8192))
        self.stream = Stream(workload, seed, db)
        answers = {sql: jsonable_result(db.sql(sql))
                   for pool in self.stream.pools.values() for sql in pool}
        self.expected = {sql: canonical(a) for sql, a in answers.items()}
        #: point-read row of every OID, before the run writes anything
        self.base_rows = {oid: answers[point_sql(oid)]["rows"][0]
                          for oid in self.stream.oids
                          if point_sql(oid) in answers}
        #: (OID, label) -> ZOOM IN texts, before the run writes anything
        self.base_zooms = {(oid, lab): answers[zoom_sql(oid, lab)]
                           for oid in self.stream.oids for lab in LABELS
                           if zoom_sql(oid, lab) in answers}
        self.classifier = db.manager.instance("ClassBird1")
        rows = db.sql("Select * From birds r").rows + \
            db.sql("Select * From synonyms s").rows
        ann_texts = [a.text for a in db.manager.annotations.scan()]
        self.user_bytes = sum(len(str(v).encode()) for r in rows
                              for v in r.values()) \
            + sum(len(t.encode()) for t in ann_texts)
        self.data_pages = db.disk.num_pages
        self.next_ann_id = db.manager.annotations.next_id


# -- checks -------------------------------------------------------------------


def check_answers(records, oracle, workload) -> tuple[int, list[str]]:
    """Count wrong answers: reads against the oracle; read-backs of
    annotated tuples against the annotations acknowledged before the read
    was sent and those sent before it returned."""
    wrong: list[str] = []
    labels_of: dict[str, str] = {}
    writes = defaultdict(list)  # oid -> [(sent, done, ok, label, text)]
    for rec in records:
        if rec.req.cls == "annotate":
            text = rec.req.text
            if text not in labels_of:
                labels_of[text] = oracle.classifier.classify(text)
            writes[rec.req.oid].append(
                (rec.sent, rec.done, rec.error is None, labels_of[text],
                 text))
            if rec.error is None and not isinstance(rec.result, int):
                wrong.append(f"ANNOTATE returned {rec.result!r}")
    for rec in records:
        if rec.error is not None or rec.req.sql is None \
                or rec.req.cls == "annotate":
            continue
        if workload.writes and rec.req.cls in ("point", "zoom"):
            problem = check_read_back(rec, writes[rec.req.oid], oracle)
            if problem:
                wrong.append(f"read-back of {rec.req.oid}: {problem}")
            continue
        expected = oracle.expected.get(rec.req.sql)
        if expected is None or canonical(rec.result) != expected:
            wrong.append(f"wrong answer to {rec.req.sql[:80]}")
    return len(wrong), wrong


def check_read_back(rec, writes, oracle) -> str | None:
    """A read-back sees every annotation of its tuple acknowledged before
    it was sent, and none that was not yet sent when it returned."""
    from collections import Counter

    from workloads import LABELS

    before = [w for w in writes if w[2] and w[1] <= rec.sent]
    sent = [w for w in writes if w[0] <= rec.done]
    if rec.req.cls == "zoom":
        base = Counter(oracle.base_zooms[(rec.req.oid, rec.req.label)])
        got = Counter(rec.result)
        low = base + Counter(w[4] for w in before if w[3] == rec.req.label)
        high = base + Counter(w[4] for w in sent if w[3] == rec.req.label)
        if low - got or got - high:
            return f"ZOOM IN {rec.req.label}: {len(got)} texts"
        return None
    row = rec.result["rows"][0] if rec.result["rows"] else None
    base = oracle.base_rows[rec.req.oid]
    if row is None or row[:2] != base[:2]:
        return f"row {row}"
    for k, lab in enumerate(LABELS, start=2):
        low = base[k] + sum(1 for w in before if w[3] == lab)
        high = base[k] + sum(1 for w in sent if w[3] == lab)
        if not low <= row[k] <= high:
            return f"{lab}={row[k]} outside [{low}, {high}]"
    return None


def recover_and_check(work: Path, records, oracle):
    """Recover the killed server's image + WAL ``RECOVERIES`` times;
    returns (median seconds, lost acknowledged writes, problems)."""
    from repro.core.database import Database
    from repro.errors import ReproError
    from repro.wal.device import FileWALDevice

    times = []
    db = None
    for _ in range(RECOVERIES):
        db = None
        gc.collect()  # each recovery starts on a heap free of the last one
        started = time.perf_counter()
        db, _report = Database.recover(work / "image",
                                       FileWALDevice(work / "wal"))
        times.append(time.perf_counter() - started)
    problems: list[str] = []
    lost = 0
    acked = [r for r in records
             if r.req.cls == "annotate" and r.error is None]
    for rec in acked:
        try:
            ann = db.manager.annotations.get(rec.result)
        except ReproError as exc:
            ann, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = "text differs"
        if ann is None or ann.text != rec.req.text:
            lost += 1
            problems.append(f"acknowledged annotation {rec.result}: "
                            f"{problem}")
    attempted = sum(1 for r in records if r.req.cls == "annotate")
    if not oracle.next_ann_id + len(acked) <= \
            db.manager.annotations.next_id <= oracle.next_ann_id + attempted:
        problems.append(
            f"annotation ids end at {db.manager.annotations.next_id}, "
            f"expected {oracle.next_ann_id} + {len(acked)} acknowledged")
    report = db.check_integrity()
    if not report.ok:
        problems.append(f"integrity: {str(report)[:500]}")
    return statistics.median(times), lost, problems


# -- the run ------------------------------------------------------------------


def run(args) -> dict:
    from loadgen import CONNECTIONS, Connections, closed_loop, open_loop
    from workloads import OPEN_SHARE, WORKLOADS

    workload = WORKLOADS[args.workload]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{workload.name}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    oracle = Oracle(workload, args.seed)
    gc.collect()
    oracle_s = time.perf_counter() - started
    stream = oracle.stream
    servers: list[ServerProcess] = []
    try:
        setups = []
        for k in range(1 if args.trace else SETUPS):
            if servers:
                servers[-1].kill()
            servers.append(ServerProcess(workload.name, args.seed,
                                         work / f"s{k}", env))
            setups.append(servers[-1].setup_s)
        server = servers[-1]
        conns = Connections(server.port)
        image_bytes = conns.op({"op": "bench_checkpoint"})
        before = conns.op({"op": "bench_metrics"})
        open_s = args.seconds * OPEN_SHARE
        if args.trace:
            open_s /= 2
        n_cycles = max(1, round(workload.rate * open_s / workload.cycle_len))
        requests = stream.cycles(n_cycles)
        opened = open_loop(conns, requests, workload.rate)
        records = list(opened)
        traced = []
        if args.trace:
            conns.op({"op": "bench_trace", "action": "start"})
            conns.tag()
            t_before = conns.op({"op": "bench_metrics"})
            traced = open_loop(conns, requests, workload.rate)
            if "checkpoint" not in workload.cycle:
                # A checkpoint inside the traced phase of a workload whose
                # mix has none.
                conns.op({"op": "bench_checkpoint"})
            t_after = conns.op({"op": "bench_metrics"})
            conns.untag()
            server_trace = json.loads(Path(conns.op(
                {"op": "bench_trace", "action": "stop"})).read_text())
            records += traced
            closed, cycle_s = [], []
        else:
            closed, cycle_s = closed_loop(
                conns, lambda: stream.cycles(1),
                args.seconds - open_s)
            records += closed
        after = conns.op({"op": "bench_metrics"})
        conns.close()
        server.kill()
        started = time.perf_counter()
        n_wrong, wrong = check_answers(records, oracle, workload)
        tracer = None
        if args.trace:
            from spans import RECOVERY_CALLS, Tracer

            tracer = Tracer()
            tracer.install(RECOVERY_CALLS, ())
        try:
            recover_s, lost, problems = recover_and_check(
                server.work, records, oracle)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        for s in servers:
            s.kill()
        shutil.rmtree(work, ignore_errors=True)
    check_s = time.perf_counter() - started
    errors = [r for r in records if r.error is not None]
    failed = len(errors) + n_wrong + lost
    attempted = len(records)
    annotated = [r for r in records
                 if r.req.cls == "annotate" and r.error is None]
    ann_bytes = sum(len(r.req.text.encode()) for r in annotated)
    late_ms = [r.late * 1e3 for r in opened]
    gen_late = percentile(late_ms, 99)
    info = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **source_version(),
        "birds": workload.birds, "ann_per_tuple": workload.ann_per_tuple,
        "pool_pages": workload.pool_pages,
        "data_pages": oracle.data_pages,
        "rate_per_s": workload.rate, "open_loop_requests": len(opened),
        "connections": CONNECTIONS,
        "flush_policy": "FileWALDevice, fsync on every commit",
        "setups_s": setups, "oracle_s": oracle_s, "check_s": check_s,
        "valid": gen_late <= GEN_LATE_LIMIT_MS,
        "gen_late_p99_ms": gen_late,
        "errors": [r.error for r in errors][:5],
        "wrong": wrong[:5], "lost": lost, "problems": problems,
    }
    by_class = class_latencies(opened)
    detail = {
        "error_ratio": failed / attempted,
        "recover_s": recover_s,
        "throughput_sps": (workload.cycle_len / statistics.median(cycle_s)
                           if cycle_s else None),
        "wal_bytes_per_user_byte": (
            (after.get("wal.bytes", 0) - before.get("wal.bytes", 0))
            / ann_bytes if ann_bytes else 0.0),
        **by_class,
    }
    correct = n_wrong == 0 and lost == 0 and not problems
    if args.trace:
        metrics = layer_metrics(
            workload, server_trace, traced, opened, t_before, t_after,
            tracer, image_bytes)
        metrics["bench.gen_late_p99_ms"] = (gen_late, "ms")
        write_trace(work_root, workload.name, args.seed, server_trace,
                    traced, tracer, metrics)
    else:
        slots = workload.slots
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "main_p50_ms": (by_class[f"{slots[0]}_p50_ms"], "ms"),
            "second_p50_ms": (by_class[f"{slots[1]}_p50_ms"], "ms"),
            "store_bytes_per_user_byte": (
                image_bytes / oracle.user_bytes, "ratio"),
        }
    if not info["valid"]:
        print(f"run invalid: generator p99 lateness {gen_late:.2f} ms "
              f"> {GEN_LATE_LIMIT_MS} ms", file=sys.stderr)
    print(json.dumps({"info": info, "detail": detail}))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def class_latencies(records) -> dict:
    """p50 and tail latency (ms, from due time) per request class."""
    lat = defaultdict(list)
    for rec in records:
        if rec.error is None:
            lat[rec.req.cls].append(rec.latency * 1e3)
    out = {}
    for cls, values in sorted(lat.items()):
        out[f"{cls}_p50_ms"] = statistics.median(values)
        name, value = tail(values)
        out[f"{cls}_tail_ms"] = value
        out[f"{cls}_tail"] = name
        out[f"{cls}_n"] = len(values)
    return out


def layer_metrics(workload, data, traced, untraced, before, after,
                  tracer, image_bytes) -> dict:
    """Per-layer metrics of the traced phase (see README.md)."""
    from spans import self_times

    spans = [tuple(s) for s in data["spans"]]
    counts = data["counts"]
    selft = self_times(spans)
    self_ms = defaultdict(float)
    n_spans = defaultdict(int)
    exec_dur = {}
    durations = defaultdict(list)
    for rid, sid, _parent, name, start, end in spans:
        self_ms[name] += selft[sid] * 1e3
        n_spans[name] += 1
        durations[name].append((end - start) * 1e3)
        if name == "txn.execute":
            exec_dur[rid] = end - start
    stmts = max(1, n_spans["txn.execute"])
    annotates = sum(1 for r in traced if r.req.cls == "annotate")

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def probes(snap):
        return sum(v for k, v in snap.items()
                   if k.startswith("index.summary.") and k.endswith(".probes"))

    overhead = [r.done - r.sent - exec_dur[r.rid]
                for r in traced if r.rid in exec_dur]
    pages = delta("pool.pages")
    rec_spans = tracer.dump()["spans"] if tracer else []
    rec_ms = defaultdict(list)
    for _rid, _sid, _parent, name, start, end in rec_spans:
        rec_ms[name].append((end - start) * 1e3)
    main = workload.slots[0]
    untraced_p50 = statistics.median(
        r.latency for r in untraced if r.req.cls == main and not r.error)
    traced_p50 = statistics.median(
        r.latency for r in traced if r.req.cls == main and not r.error)
    per_stmt = {
        "server.overhead_ms": statistics.mean(overhead) * 1e3
        if overhead else 0.0,
        "server.frame_ms": self_ms["server.frame"] / stmts,
        "txn.lock_wait_ms": self_ms["txn.lock"] / stmts,
        "query.parse_ms": self_ms["query.parse"] / stmts,
        "optimizer.plan_ms": self_ms["optimizer.plan"] / stmts,
        "query.exec_self_ms": self_ms["txn.stmt"] / stmts,
        "summaries.read_ms": self_ms["summaries.read"] / stmts,
        "summaries.maintain_ms": self_ms["summaries.maintain"] / stmts,
        "mining.ms": self_ms["mining"] / stmts,
        "annotations.ms": self_ms["annotations"] / stmts,
        "index.maintain_ms": self_ms["index.maintain"] / stmts,
        "btree.encode_ms": self_ms["btree.encode"] / stmts,
        "wal.append_ms": self_ms["wal.append"] / stmts,
        "wal.sync_ms": self_ms["wal.sync"] / stmts,
    }
    metrics = {name: (value, "ms") for name, value in per_stmt.items()}
    metrics.update({
        "txn.stmt_ms": (statistics.mean(durations["txn.stmt"])
                        if durations["txn.stmt"] else 0.0, "ms"),
        "txn.lock_waits": (delta("lock.waits") / stmts, "1/stmt"),
        "summaries.reads_per_stmt": (n_spans["summaries.read"] / stmts,
                                     "1/stmt"),
        "index.probes_per_stmt": ((probes(after) - probes(before)) / stmts,
                                  "1/stmt"),
        "btree.encodes_per_annotate": (
            n_spans["btree.encode"] / annotates if annotates else 0.0,
            "1/annotate"),
        "btree.decodes_per_stmt": (counts.get("btree.decodes", 0) / stmts,
                                   "1/stmt"),
        "storage.pages_per_stmt": (pages / stmts, "1/stmt"),
        "storage.miss_ratio": (delta("pool.misses") / pages if pages
                               else 0.0, "ratio"),
        "storage.disk_reads_per_stmt": (delta("disk.reads") / stmts,
                                        "1/stmt"),
        "storage.disk_writes_per_stmt": (delta("disk.writes") / stmts,
                                         "1/stmt"),
        "wal.bytes_per_record": (
            delta("wal.bytes") / delta("wal.records")
            if delta("wal.records") else 0.0, "B"),
        "core.checkpoint_ms": (statistics.mean(durations["core.checkpoint"])
                               if durations["core.checkpoint"] else 0.0,
                               "ms"),
        "core.recover_load_ms": (statistics.mean(
            rec_ms["core.recover_load"]), "ms"),
        "core.recover_replay_ms": (statistics.mean(
            rec_ms["core.recover_replay"]), "ms"),
        "core.image_bytes": (image_bytes, "B"),
        "resilience.retries": (delta("resilience.retries"), "count"),
        "server.shed": (delta("server.shed"), "count"),
        "bench.trace_overhead_pct": (
            (traced_p50 - untraced_p50) / untraced_p50 * 100, "%"),
    })
    return metrics


def write_trace(work_root: Path, workload: str, seed: int, data: dict,
                traced, tracer, metrics) -> None:
    """Write the traced phase's spans (server, client and recovery) and
    the metrics derived from them to ``.perfbench_work/``."""
    data["client"] = [[r.rid, r.req.cls, r.sent, r.done]
                      for r in traced if r.rid]
    data["recovery"] = tracer.dump()["spans"] if tracer else []
    data["metrics"] = {k: v for k, (v, _u) in metrics.items()}
    out = work_root / f"trace-{workload}-{seed}.json"
    out.write_text(json.dumps(data))
    print(f"trace written to {out}", file=sys.stderr)


def source_version() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the engine's source files."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"engine source not found under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks that kill the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # engine defaults, whatever the caller's shell
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
