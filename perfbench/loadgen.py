"""Load generator: one process, at most two connections to the server.

* :func:`open_loop` offers the requests at a fixed rate whatever the
  server does.  Request ``i`` is due at ``start + i / rate``; its latency
  runs from when it was due, so a stall also charges the requests that
  queued behind it.  A request waits for a free connection when both are
  busy (server backlog); when a connection was free but the generator
  sent late, that lateness is the generator's own and is reported apart.
* :func:`closed_loop` sends each connection's next request as soon as
  its previous one returned, until the phase deadline, and always
  finishes the cycle in progress so every phase runs whole cycles.  It
  reports when each cycle completed, so throughput can be taken as a
  median over cycles: a collector pause or a slow second of the host
  moves one cycle, not the result.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ReproError
from repro.server import QueryClient

#: connections the generator opens (the box has two cores).
CONNECTIONS = 2
#: a response slower than this is a failure.
RESPONSE_TIMEOUT = 60.0


@dataclass
class Record:
    """Outcome of one request."""

    req: object
    due: float
    sent: float
    done: float
    #: the generator's own lateness: sent minus max(due, connection free)
    late: float
    result: object = None
    error: str | None = None
    #: request id shared with the server's spans (traced phases only)
    rid: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connections:
    """The generator's connections, optionally tagged for tracing."""

    def __init__(self, port: int):
        self.clients = [
            QueryClient(port=port, response_timeout=RESPONSE_TIMEOUT)
            for _ in range(CONNECTIONS)
        ]
        #: per-connection statement counters while traced (None = off)
        self.traced: list[int] | None = None

    def tag(self) -> None:
        for i, client in enumerate(self.clients):
            client.request({"op": "bench_tag", "conn": i})
        self.traced = [0] * len(self.clients)

    def untag(self) -> None:
        self.traced = None

    def op(self, request: dict):
        return self.clients[0].request(request)

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _send(conns: Connections, i: int, req, due: float, free: float,
          sent: float) -> Record:
    client = conns.clients[i]
    rid = None
    try:
        if req.op is not None:
            result = client.request(req.op)
        else:
            if conns.traced is not None:
                conns.traced[i] += 1
                rid = f"{i}:{conns.traced[i]}"
            result = client.execute(req.sql)
        error = None
    except (ReproError, OSError) as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Record(req, due, sent, done, sent - max(due, free), result,
                  error, rid)


def open_loop(conns: Connections, requests: list, rate: float
              ) -> list[Record]:
    """Offer ``requests`` at ``rate`` per second; one record each, in
    request order."""
    records: list[Record | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(i: int) -> None:
        while True:
            with lock:
                k = cursor[0]
                if k >= len(requests):
                    return
                cursor[0] += 1
            due = start + k / rate
            free = time.perf_counter()
            wait = due - free
            if wait > 0:
                time.sleep(wait)
            records[k] = _send(conns, i, requests[k], due, free,
                               time.perf_counter())

    _run_workers(worker, len(conns.clients))
    return records  # type: ignore[return-value]


def closed_loop(conns: Connections, next_cycle, seconds: float
                ) -> tuple[list[Record], list[float]]:
    """Saturate the connections for ``seconds`` (rounded up to whole
    cycles from ``next_cycle()``); returns the records and the time each
    cycle took, from the previous cycle's last response to its own."""
    lock = threading.Lock()
    queue: list = []
    records: list[Record] = []
    #: per cycle: [requests not yet answered, time of the last answer]
    cycles: list[list] = []
    start = time.perf_counter()
    deadline = start + seconds

    def worker(i: int) -> None:
        while True:
            with lock:
                if not queue:
                    if time.perf_counter() >= deadline:
                        return
                    batch = next_cycle()
                    cycles.append([len(batch), None])
                    queue.extend((len(cycles) - 1, r)
                                 for r in reversed(batch))
                k, req = queue.pop()
            now = time.perf_counter()
            rec = _send(conns, i, req, now, now, now)
            with lock:
                records.append(rec)
                cycles[k][0] -= 1
                if cycles[k][0] == 0:
                    cycles[k][1] = rec.done

    _run_workers(worker, len(conns.clients))
    ends = [start] + sorted(done for _n, done in cycles)
    return records, [b - a for a, b in zip(ends, ends[1:])]


def _run_workers(worker, n: int) -> None:
    errors: list[BaseException] = []

    def guarded(i: int) -> None:
        try:
            worker(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
