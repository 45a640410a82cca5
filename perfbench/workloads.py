"""The three workloads, each driven by one closed-loop caller.

A *request* is one call into the front door: ``ContainmentService.run``
in-process, or ``DaemonClient.batch`` against the fleet gateway.  The next
request is sent only when the previous answer is back.  Request ``i`` of a
run is a pure function of ``(seed, i)``, so a traced run can replay exactly
the requests of its untraced half.
"""

from __future__ import annotations

import asyncio
import random
import resource
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs.metrics import parse_exposition
from repro.service import BatchOptions, ContainmentService, DaemonClient
from repro.service.daemon import ContainmentDaemon, serve
from repro.service.fleet import FleetGateway, ReplicaSpec, start_fleet, stop_fleet
from repro.service.protocol import parse_address

from perfbench import inputs
from perfbench.checks import (
    VerdictCheck,
    hygiene_problems,
    key_hash,
    peak_rss_mb,
    reap,
)
from perfbench.tracing import REQUEST, Tracer

WARMUP_PAIRS = ContainmentDaemon.WARMUP_PAIRS
#: Bound on one request's client-side wait, far above any healthy request.
CLIENT_TIMEOUT = 120.0


def _request_span(tracer: Optional[Tracer], serial: int):
    """The root span of one front-door request (nothing when untraced)."""
    if tracer is None:
        return nullcontext()
    tracer.request = serial
    return tracer.span(REQUEST)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_process() -> None:
    """Pay this process's first-solve costs (imports, solver first call)."""
    from repro.cq.parser import parse_query

    with ContainmentService() as service:
        service.run([(parse_query(a), parse_query(b)) for a, b in WARMUP_PAIRS])


class Workload:
    """One workload: set up, serve requests, check, tear down."""

    name = ""
    #: Requests in each half of a traced run (fixed, so counts repeat).
    trace_requests = 1
    #: Whether the front door is the wire client, so that the request span's
    #: own time is wire time rather than time in no layer.
    front_door_is_wire = False

    def __init__(self, seed: int, scratch: Path, check: VerdictCheck, traced: bool):
        self.seed = seed
        self.scratch = scratch
        self.check = check
        self.traced = traced
        self.peak_rss = 0.0
        self.notes: List[str] = []

    def setup(self) -> None:
        _warm_process()

    def request(self, index: int, tracer: Optional[Tracer], phase: str) -> Tuple[float, int]:
        """Serve request ``index``; returns (latency seconds, pairs)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Check everything served (outside any timed phase)."""

    def close(self) -> List[str]:
        """Tear down; returns hygiene problems."""
        self.peak_rss = max(self.peak_rss, _self_peak_rss_mb())
        return []

    def scrape(self) -> None:
        """Snapshot out-of-process layer metrics (around the traced half)."""

    def layer_metrics(self) -> Dict[str, float]:
        """Daemon / gateway / wire split of the traced half, where one exists."""
        return {}


class _InProcess(Workload):
    """The request path shared by the two in-process workloads."""

    store = False

    def __init__(self, *args):
        super().__init__(*args)
        self._served: List[Tuple[List[inputs.QueryPair], List[str]]] = []
        self.stores: List[str] = []

    def pairs(self, index: int) -> List[inputs.QueryPair]:
        raise NotImplementedError

    def request(self, index, tracer, phase):
        pairs = self.pairs(index)
        store_path = None
        if self.store:
            store_path = str(self.scratch / f"{self.name}-{phase}-{index}.sqlite")
            self.stores.append(store_path)
        service = ContainmentService(store_path=store_path, on_error="capture")
        try:
            started = time.perf_counter()
            with _request_span(tracer, index):
                report = service.run(pairs)
            latency = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - a failed request, not a crash
            self.check.fail(len(pairs), f"request {index} raised {error!r}")
            return time.perf_counter() - started, len(pairs)
        finally:
            service.close()
        self._served.append((pairs, [r.status.value for r in report.results]))
        return latency, len(pairs)

    def finish(self):
        for pairs, statuses in self._served:
            for (q1, q2), status in zip(pairs, statuses):
                self.check.add(key_hash(q1, q2), status)
        self._served.clear()
        if self.stores:
            self.check.audit(self.stores)
            self.notes.append(
                f"audited {len(self.stores)} stores "
                f"({self.check.audited_records} distinct records verified)"
            )
        self.stores.clear()


class ColdBatch(_InProcess):
    """A fresh service with a fresh store per 128-pair mixed batch."""

    name = "cold-batch"
    store = True
    trace_requests = 3

    def pairs(self, index):
        return inputs.cold_batch(self.seed, index)


class WideQueries(_InProcess):
    """A fresh service per batch of four wide pairs (LP and Eq. (8)).

    One variable-name prefix for every run: the program caches lattices and
    provers per ground tuple of variable names, so fresh names on every
    request would make peak memory grow with the number of requests a run
    completes, and a faster program would read as a bigger one.  The prefix
    does not come from the seed either: the cost follows the iteration order
    of the name set, which a per-seed prefix fixed for a whole run of three
    or four requests (see ``WIDE_PREFIX``).  The seed draws the cheap pair's
    sizes and the order of the pairs.
    """

    name = "wide-queries"
    trace_requests = 2

    def pairs(self, index):
        return inputs.wide_batch(
            random.Random(self.seed * 1_000_003 + index), inputs.WIDE_PREFIX
        )


# ---------------------------------------------------------------------- #
# The fleet
# ---------------------------------------------------------------------- #
class ProcessFleet:
    """A one-replica fleet from ``start_fleet``, in a private directory."""

    method = "processes started by start_fleet"

    def __init__(self, directory: Path):
        self.directory = directory
        self.gateway = str(directory / "gateway.sock")
        manifest = start_fleet(
            directory=str(directory), replicas=1, gateway_address=self.gateway
        )
        replica = manifest["replicas"][0]
        self.replica = replica["address"]
        self.store = replica["store"]
        self.pids = [manifest["gateway"]["pid"], replica["pid"]]

    def peak_rss(self) -> float:
        return max(peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> List[str]:
        try:
            stop_fleet(str(self.directory))
        finally:
            stragglers = reap(self.pids)
        problems = [f"pid {pid} ignored stop and was killed" for pid in stragglers]
        return problems + hygiene_problems(self.pids, self.directory)


class HostedFleet:
    """The same fleet hosted on threads of this process, for traced runs:
    the replica through ``daemon.serve`` and the gateway through
    ``FleetGateway.serve``, so wrappers see every layer."""

    method = "replica and gateway hosted on threads of the benchmark process"

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.replica = str(directory / "replica-0.sock")
        self.gateway = str(directory / "gateway.sock")
        self.store = str(directory / "replica-0.sqlite")
        replica_ready, gateway_ready = threading.Event(), threading.Event()
        options = BatchOptions(on_error="capture", store_path=self.store)
        self._threads = [
            threading.Thread(
                target=serve,
                args=(parse_address(self.replica),),
                kwargs={
                    "options": options,
                    "warmup": True,
                    "ready_callback": lambda daemon: replica_ready.set(),
                },
                daemon=True,
            )
        ]
        self._threads[0].start()
        if not replica_ready.wait(60):
            raise RuntimeError("hosted replica did not come up")
        gateway = FleetGateway(
            [ReplicaSpec("replica-0", self.replica, self.store)], probe_interval=None
        )
        self._threads.append(
            threading.Thread(
                target=asyncio.run,
                args=(
                    gateway.serve(
                        parse_address(self.gateway),
                        ready_callback=lambda g: gateway_ready.set(),
                    ),
                ),
                daemon=True,
            )
        )
        self._threads[1].start()
        if not gateway_ready.wait(60):
            DaemonClient(self.replica, timeout=30).stop()
            raise RuntimeError("hosted gateway did not come up")

    def peak_rss(self) -> float:
        return _self_peak_rss_mb()

    def stop(self) -> List[str]:
        for address in (self.gateway, self.replica):
            DaemonClient(address, timeout=30).stop()
        for thread in self._threads:
            thread.join(30)
        problems = [f"{t.name} still running" for t in self._threads if t.is_alive()]
        return problems + hygiene_problems([], self.directory)


def _scrape(address: str) -> Dict[str, float]:
    """A metrics document summed over label sets."""
    samples = parse_exposition(DaemonClient(address, timeout=30).metrics())
    return {name: sum(values.values()) for name, values in samples.items()}


class WarmFleet(Workload):
    """Client → gateway → one replica, every pair a canonical-key hit."""

    name = "warm-fleet"
    trace_requests = 300
    front_door_is_wire = True
    #: Serial offset of a traced half's renames, so its text is fresh too.
    TRACED_SERIALS = 1_000_000

    def __init__(self, *args):
        super().__init__(*args)
        self.fleet = None
        self._store: Optional[str] = None
        self.base = inputs.e13()
        self.base_keys = [key_hash(q1, q2) for q1, q2 in self.base]
        self._served: List[Tuple[List[int], List[str]]] = []
        self._client: Optional[DaemonClient] = None
        self._scrapes: List[Tuple[Dict[str, float], Dict[str, float]]] = []
        self._round_trips = 0.0

    def _texts(self, pairs):
        return [(inputs.query_text(q1), inputs.query_text(q2)) for q1, q2 in pairs]

    def _batch(self, texts) -> Optional[List[str]]:
        """The statuses of one batch; ``None`` (its pairs failed) when the
        fleet refused it, answered short or the connection broke."""
        try:
            response = self._client.batch(texts)
        except ReproError as error:
            self.check.fail(len(texts), f"batch raised {error!r}")
            return None
        if not response.ok or len(response.verdicts) != len(texts):
            self.check.fail(len(texts), f"fleet answered ok={response.ok}: {response.error}")
            return None
        return [verdict.status for verdict in response.verdicts]

    def setup(self):
        kind = HostedFleet if self.traced else ProcessFleet
        self.fleet = kind(self.scratch / "f")
        self._client = DaemonClient(self.fleet.gateway, timeout=CLIENT_TIMEOUT)
        # Prefill: E13 once through the gateway; every later pair is a
        # renamed E13 pair, hence a canonical-key hit at the replica.
        statuses = self._batch(self._texts(self.base))
        if statuses is None:
            raise RuntimeError(f"the E13 prefill failed: {self.check.problems[-1]}")
        self._served.append((list(range(len(self.base))), statuses))
        self.notes.append(f"fleet: {self.fleet.method}")

    def request(self, index, tracer, phase):
        rng = random.Random(self.seed * 1_000_003 + index)
        serial = index + (self.TRACED_SERIALS if phase == "traced" else 0)
        indices, pairs = inputs.warm_request(rng, self.base, serial)
        texts = self._texts(pairs)
        started = time.perf_counter()
        with _request_span(tracer, index):
            statuses = self._batch(texts)
        latency = time.perf_counter() - started
        if statuses is not None:
            self._served.append((indices, statuses))
        if tracer is not None:
            self._round_trips += latency
        return latency, len(pairs)

    def scrape(self):
        self._scrapes.append((_scrape(self.fleet.gateway), _scrape(self.fleet.replica)))

    def layer_metrics(self):
        (gateway0, replica0), (gateway1, replica1) = self._scrapes[-2:]

        def delta(before, after, name):
            return after.get(name, 0.0) - before.get(name, 0.0)

        def mean_ms(before, after, name):
            count = delta(before, after, name + "_count")
            return 1000.0 * delta(before, after, name + "_sum") / count if count else 0.0

        requests = delta(gateway0, gateway1, "repro_gateway_request_seconds_count")
        gateway_ms = mean_ms(gateway0, gateway1, "repro_gateway_request_seconds")
        daemon_ms = mean_ms(replica0, replica1, "repro_daemon_request_seconds")
        folded = delta(gateway0, gateway1, "repro_gateway_dedup_folded_total")
        routed = delta(gateway0, gateway1, "repro_gateway_pairs_routed_total")
        return {
            "daemon.request_ms": daemon_ms,
            "daemon.queue_wait_ms": mean_ms(
                replica0, replica1, "repro_daemon_queue_wait_seconds"
            ),
            "gateway.self_ms": gateway_ms - daemon_ms,
            "gateway.dedup_fold_ratio": folded / (folded + routed) if folded + routed else 0.0,
            "gateway.drains": delta(gateway0, gateway1, "repro_gateway_drain_events_total"),
            "wire.overhead_ms": (
                1000.0 * self._round_trips / requests - gateway_ms if requests else 0.0
            ),
        }

    def finish(self):
        for indices, statuses in self._served:
            for index, status in zip(indices, statuses):
                self.check.add(self.base_keys[index], status)
        self._served.clear()
        # Audited after close(): the replica that wrote it has exited.
        self.check.audit([self._store])

    def close(self):
        problems: List[str] = []
        if self.fleet is not None:
            try:
                self.peak_rss = self.fleet.peak_rss()
            finally:
                problems = self.fleet.stop()
            self._store = self.fleet.store
            self.fleet = None
        self.peak_rss = max(self.peak_rss, _self_peak_rss_mb())
        return problems


WORKLOADS = {kind.name: kind for kind in (ColdBatch, WideQueries, WarmFleet)}
