"""Server launcher: build one workload's seeded database and serve it.

Run by ``run.py`` in its own process::

    python3 perfbench/serve.py --workload hot-reads --seed 1 --dir WORK

It builds the database from the seed, attaches a file WAL under ``WORK``
(fsync on every commit, the engine default), starts a
:class:`repro.server.QueryServer` on an ephemeral port and prints
``READY <port>``.  It then serves until killed, or until its standard
input closes (the benchmark process died).  Besides SQL, the server
answers the ops registered here through the public
``QueryServer.register_op``:

* ``bench_checkpoint`` -- ``Database.save`` to ``WORK/image``; returns
  the image size in bytes.
* ``bench_metrics``    -- ``Database.metrics_snapshot()``.
* ``bench_trace``      -- ``{"action": "start"}`` patches the layer entry
  points (``spans.Tracer``); ``{"action": "stop"}`` unpatches them and
  writes the recorded spans to ``WORK/server-spans.json``.
* ``bench_tag``        -- names this connection's session for tracing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402


def register_ops(server, db, work: Path) -> None:
    image = work / "image"
    tracer: list[Tracer] = []

    def checkpoint(_request, _conn):
        db.save(image)
        return image.stat().st_size

    def metrics(_request, _conn):
        return db.metrics_snapshot()

    def trace(request, _conn):
        if request.get("action") == "start":
            tracer.append(Tracer())
            tracer[-1].install()
            return True
        active = tracer.pop()
        active.uninstall()
        path = work / "server-spans.json"
        path.write_text(json.dumps(active.dump()))
        return str(path)

    def tag(request, conn):
        tracer[-1].tag_session(conn.session, int(request["conn"]))
        return True

    server.register_op("bench_checkpoint", checkpoint)
    server.register_op("bench_metrics", metrics)
    server.register_op("bench_trace", trace)
    server.register_op("bench_tag", tag)


async def serve(workload, seed: int, work: Path) -> None:
    from repro.server import QueryServer
    from repro.wal.device import FileWALDevice
    from repro.workload.generator import build_database

    db = build_database(workload_config(workload, seed))
    db.attach_wal(FileWALDevice(work / "wal"))
    server = QueryServer(db)
    register_ops(server, db, work)
    await server.start()
    print(f"READY {server.port}", flush=True)
    await server.serve_forever()


def _exit_with_parent() -> None:
    sys.stdin.buffer.read()
    os._exit(0)


def main() -> None:
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    asyncio.run(serve(WORKLOADS[args.workload], args.seed, work))


if __name__ == "__main__":
    main()
