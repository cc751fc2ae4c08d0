"""The four closed-loop workloads. Each sends its next request only after the
previous one completed, checks every answer against the oracle, and runs
whole rounds of a fixed mix for about the run's seconds.

publish  one keep-alive client GETs all five pages per round.
browse   two keep-alive clients, rounds of 9 point searches, 4 date
         searches, 3 broad searches and 4 bookings (one a repeat) in seeded
         order.
crawl    matpub's own crawler resolves 40 sampled variations per page, two
         workers, against four elevated pages, with a fresh inventory per page.
soldout  one keep-alive client GETs four pages of a sold-out catalog per round.
"""
from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from oracle import CatalogOracle, MarkerCounter, check_page
from tracing import REQUEST_HEADER

HEURISTICS = ("full", "abstraction", "specialization", "type-level", "selective")
ELEVATED = ("abstraction", "specialization", "type-level", "selective")
# One booking in four repeats one of the client's confirmed bookings, which
# must be refused: uniform samples over 87,600 variations almost never repeat.
BROWSE_ROUND = ("point",) * 9 + ("date",) * 4 + ("broad",) * 3 + ("book",) * 3 + ("rebook",)
BROWSE_CLIENTS = 2
CRAWL_QUERIES = 40
CRAWL_CONCURRENCY = 2
TIMEOUT_S = 60
MAX_ERRORS_KEPT = 20


@dataclass
class Outcome:
    """What one workload run measured."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    rounds: List[float] = field(default_factory=list)
    api_calls: List[float] = field(default_factory=list)
    round_is_op: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def latencies(self) -> List[float]:
        """The latency of every completed operation: a request, a page, a
        resolution, or a whole round where the round is the operation."""
        if self.round_is_op:
            return list(self.rounds)
        return [s for samples in self.samples.values() for s in samples]

    def fail(self, n: int, error: str):
        with self._lock:
            self.failed += n
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(error)

    def run(self, kind: str, op: Callable[[], Tuple[Optional[str], float]]):
        """Run one operation; it returns (error or None, seconds taken)."""
        with self._lock:
            self.attempted += 1
        try:
            error, seconds = op()
        except Exception as exc:  # transport error or a body unlike the API's
            error, seconds = f"{kind}: {exc!r}", 0.0
        if error is not None:
            self.fail(1, error)
            return
        with self._lock:
            self.samples[kind].append(seconds)


def run_rounds(seconds: float, one_round: Callable[[], None]) -> float:
    """Run whole rounds, at least one, starting another while at least half
    of it is expected to fall within `seconds`. Returns the time taken."""
    start = time.perf_counter()
    last = 0.0
    while True:
        t = time.perf_counter()
        if t > start and t - start + last / 2 > seconds:
            break
        one_round()
        last = time.perf_counter() - t
    return time.perf_counter() - start


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int, tracer=None, ids=None):
        self.port = port
        self.tracer = tracer
        self.ids = ids if ids is not None else itertools.count(1)
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body=None, sink: Optional[MarkerCounter] = None):
        """Returns (status, body bytes or None when streamed to sink, seconds)."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request_id = None
        if self.tracer is not None:
            request_id = f"b{next(self.ids)}"
            headers[REQUEST_HEADER] = request_id
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            data = None
            if sink is None:
                data = response.read()
            else:
                while chunk := response.read(1 << 20):
                    sink.feed(chunk)
        except Exception:
            self.close()
            raise
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("client.http", start, end, request_id=request_id)
        return response.status, data, end - start

    def json(self, method: str, path: str, body=None):
        status, data, seconds = self.request(method, path, body)
        return status, json.loads(data), seconds

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def reset(conn: Connection) -> Optional[str]:
    status, doc, _ = conn.json("POST", "/admin/reset", {})
    if status != 200 or doc.get("epoch") != 0:
        return f"reset: status {status}, body {doc!r}"
    return None


# ---------------------------------------------------------------------------
# publish and soldout: page GETs

def _page(conn: Connection, oracle: CatalogOracle, heuristic: str, endpoint: str):
    page = MarkerCounter()
    status, _, seconds = conn.request("GET", f"/page/{heuristic}", sink=page)
    if status != 200:
        return f"/page/{heuristic}: status {status}", seconds
    return check_page(oracle, heuristic, page, endpoint), seconds


def _sold_out_specialization(conn: Connection):
    # The API documents 422 for specialization on an empty inventory.
    status, doc, seconds = conn.json("GET", "/page/specialization")
    if status != 422 or "error" not in doc:
        return f"/page/specialization: status {status}, expected 422", seconds
    return None, seconds


def publish(target, seed, seconds, tracer=None) -> Outcome:
    return _pages(target, seed, seconds, tracer, HEURISTICS, Outcome())


def soldout(target, seed, seconds, tracer=None) -> Outcome:
    # The operation is a visit to all four sold-out pages. Single pages of
    # about a second swing by a third with the host's speed; a round spans
    # several seconds and averages that out.
    return _pages(target, seed, seconds, tracer, ELEVATED, Outcome(round_is_op=True))


def _pages(target, seed, seconds, tracer, heuristics, out: Outcome) -> Outcome:
    rng = Random(seed)
    oracle = target.oracle
    conn = Connection(target.port, tracer)

    def one_round():
        order = list(heuristics)
        rng.shuffle(order)
        failed = out.failed
        start = time.perf_counter()
        for h in order:
            if h == "specialization" and oracle.rate == 0.0:
                out.run(h, lambda: _sold_out_specialization(conn))
            else:
                out.run(h, lambda h=h: _page(conn, oracle, h, target.endpoint))
        if out.failed == failed:
            out.rounds.append(time.perf_counter() - start)

    try:
        out.elapsed = run_rounds(seconds, one_round)
    finally:
        conn.close()
    return out


# ---------------------------------------------------------------------------
# browse: searches beside bookings

class Ledger:
    """What the clients booked since the reset, and what is in flight, so each
    search and booking answer can be checked against it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.booked: Dict[str, dict] = {}
        self.pending: Dict[str, Tuple[dict, int]] = {}

    def _matching(self, entries, constraints) -> int:
        return sum(1 for a in entries
                   if all(a[k] == v for k, v in constraints.items()))

    def booked_in(self, constraints) -> Tuple[int, set]:
        """Bookings confirmed inside the subspace, and every booked id."""
        with self._lock:
            return self._matching(self.booked.values(), constraints), set(self.booked)

    def booked_or_pending_in(self, constraints) -> int:
        with self._lock:
            return (self._matching(self.booked.values(), constraints)
                    + self._matching((a for a, _ in self.pending.values()), constraints))

    def begin(self, canonical_id, assignments):
        with self._lock:
            _, n = self.pending.get(canonical_id, (assignments, 0))
            self.pending[canonical_id] = (assignments, n + 1)

    def end(self, canonical_id, assignments, status) -> Optional[str]:
        with self._lock:
            _, n = self.pending[canonical_id]
            if n == 1:
                del self.pending[canonical_id]
            else:
                self.pending[canonical_id] = (assignments, n - 1)
            if status == "confirmed":
                if canonical_id in self.booked:
                    return f"book: {canonical_id} confirmed twice"
                self.booked[canonical_id] = assignments
                return None
            if status == "already_booked":
                if canonical_id in self.booked or n > 1:
                    return None
                return f"book: {canonical_id} refused but never booked"
            return f"book: unexpected status {status!r}"


def _search(conn, oracle, ledger, constraints):
    size = oracle.subspace_size(constraints)
    booked_before, booked_ids = ledger.booked_in(constraints)
    status, doc, seconds = conn.json("GET", "/api/search?" + urlencode(constraints))
    if status != 200:
        return f"search {constraints}: status {status}", seconds
    booked_after = ledger.booked_or_pending_in(constraints)
    total = doc["total_count"]
    if not size - booked_after <= total <= size - booked_before:
        return (f"search {constraints}: total_count {total}, expected "
                f"{size - booked_after}..{size - booked_before}"), seconds
    offers = doc["offers"]
    if len(offers) != min(total, doc["per_page"]):
        return f"search {constraints}: {len(offers)} offers for total {total}", seconds
    for offer in offers:
        error = oracle.check_offer(offer, constraints)
        if error is None and offer["canonical_id"] in booked_ids:
            error = f"offer {offer['canonical_id']} was booked before the search"
        if error is not None:
            return f"search {constraints}: {error}", seconds
    return None, seconds


def _book(conn, oracle, ledger, assignments, confirmed: List[dict]):
    canonical_id = oracle.canonical_id(assignments)
    ledger.begin(canonical_id, assignments)
    status = "transport error"
    try:
        http_status, doc, seconds = conn.json("POST", "/api/book",
                                              {"canonical_id": canonical_id})
        if http_status != 200 or doc.get("canonical_id") != canonical_id:
            return f"book {canonical_id}: status {http_status}, body {doc!r}", seconds
        status = doc.get("status")
    finally:
        error = ledger.end(canonical_id, assignments, status)
    if error is None and status == "confirmed":
        confirmed.append(assignments)
    return error, seconds


def browse(target, seed, seconds, tracer=None) -> Outcome:
    out = Outcome()
    oracle = target.oracle
    ledger = Ledger()
    ids = itertools.count(1)
    ends = []

    def client(index: int):
        rng = Random(seed * BROWSE_CLIENTS + index)
        conn = Connection(target.port, tracer, ids)
        confirmed: List[dict] = []

        def op(kind):
            if kind == "point":
                return _search(conn, oracle, ledger, oracle.sample(rng))
            if kind == "date":
                return _search(conn, oracle, ledger,
                               {"arrival": rng.choice(oracle.values["arrival"])})
            if kind == "broad":
                name = rng.choice(oracle.short)
                return _search(conn, oracle, ledger, {name: rng.choice(oracle.values[name])})
            if kind == "rebook" and confirmed:
                return _book(conn, oracle, ledger, rng.choice(confirmed), confirmed)
            return _book(conn, oracle, ledger, oracle.sample(rng), confirmed)

        def one_round():
            order = list(BROWSE_ROUND)
            rng.shuffle(order)
            for kind in order:
                out.run(kind, lambda kind=kind: op(kind))

        try:
            run_rounds(seconds, one_round)
        except Exception as exc:  # keep the other client and the report going
            out.fail(1, f"browse client {index}: {exc!r}")
        finally:
            conn.close()
            ends.append(time.perf_counter())

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(BROWSE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out.elapsed = max(ends) - start
    return out


# ---------------------------------------------------------------------------
# crawl: matpub's own crawler

def crawl(target, seed, seconds, tracer=None) -> Outcome:
    from matpub import catalog, consumer

    out = Outcome()
    rng = Random(seed)
    oracle = target.oracle
    product = catalog.load_catalog(target.catalog_path)
    admin = Connection(target.port)
    latencies: List[float] = []
    resolve = consumer.Client.resolve

    def timed_resolve(self, *args, **kwargs):
        start = time.perf_counter()
        trace = resolve(self, *args, **kwargs)
        latencies.append(time.perf_counter() - start)
        return trace

    def experiment(heuristic: str):
        try:
            error = reset(admin)
        finally:
            admin.close()  # the crawl itself uses at most two connections
        if error is not None:
            out.fail(CRAWL_QUERIES, error)
            return
        experiment_seed = rng.randrange(2 ** 31)
        query_rng = Random(experiment_seed)
        queries = [oracle.sample(query_rng) for _ in range(CRAWL_QUERIES)]
        distinct = len({oracle.canonical_id(q) for q in queries})
        latencies.clear()
        out.attempted += CRAWL_QUERIES
        try:
            summary = consumer.hit_ratio_experiment(
                f"{target.endpoint}/page/{heuristic}", product, CRAWL_QUERIES,
                experiment_seed, book=True, concurrency=CRAWL_CONCURRENCY)
        except Exception as exc:  # TransportError, or a crash inside the crawler
            out.fail(CRAWL_QUERIES, f"crawl {heuristic}: {exc!r}")
            return
        if summary["n_queries"] != CRAWL_QUERIES or summary["booked"] != distinct \
                or summary["hit_ratio"] != distinct / CRAWL_QUERIES:
            out.fail(CRAWL_QUERIES, f"crawl {heuristic}: hit ratio {summary['hit_ratio']} "
                                    f"booked {summary['booked']}, expected {distinct} "
                                    f"of {CRAWL_QUERIES}")
            return
        if len(latencies) != CRAWL_QUERIES:
            out.fail(CRAWL_QUERIES, f"crawl {heuristic}: {len(latencies)} resolutions timed")
            return
        out.samples[heuristic].extend(latencies)
        out.api_calls.append(summary["mean_api_calls"])

    def one_round():
        for heuristic in ELEVATED:
            experiment(heuristic)

    consumer.Client.resolve = timed_resolve
    try:
        out.elapsed = run_rounds(seconds, one_round)
    finally:
        consumer.Client.resolve = resolve
        admin.close()
    return out


WORKLOADS = {"publish": publish, "browse": browse, "crawl": crawl, "soldout": soldout}
