"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays a fixed
set of requests untraced and then traced, and prints the per-layer metrics.
Every metric is printed as ``<name> = <value> <unit>``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every served verdict and every store audit checked
out and no process or socket outlived the run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench-run"

END_TO_END = {
    "pairs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "canonical.calls": "count",
    "canonical.self_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.self_s": "s",
    "evidence.calls": "count",
    "evidence.self_s": "s",
    "store.writes": "count",
    "store.flushes": "count",
    "store.self_s": "s",
    "engine.pipelines": "count",
    "engine.self_s": "s",
    "inequality.calls": "count",
    "inequality.branches": "count",
    "inequality.self_s": "s",
    "hom.calls": "count",
    "hom.facts": "count",
    "hom.self_s": "s",
    "witness.calls": "count",
    "witness.self_s": "s",
    "lp.block_calls": "count",
    "lp.scalar_calls": "count",
    "lp.self_s": "s",
    "lp.solves_avoided_ratio": "ratio",
    "daemon.request_ms": "ms",
    "daemon.queue_wait_ms": "ms",
    "gateway.self_ms": "ms",
    "gateway.dedup_fold_ratio": "ratio",
    "gateway.drains": "count",
    "wire.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_ratio": "ratio",
}
#: Layers whose self time counts as accounted for in the tracer self-check.
LAYERS = ("canonical", "cache", "evidence", "store", "engine", "inequality",
          "hom", "witness", "lp", "daemon", "gateway")
#: ``trace.unaccounted_ratio`` above this draws a warning.
UNACCOUNTED_WARN = 0.10
#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Mixed-generator batches whose verdicts ``--pin`` records.
PIN_SEEDS = 48
#: The program's cost depends on the iteration order of string sets by up
#: to 40% between interpreter processes; every process of a run uses this.
HASH_SEED = "0"


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}")
    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"perfbench: repro was imported from {origin}, outside this checkout")
    SCRATCH.mkdir(exist_ok=True)
    # Daemon logs and any temporary file of the program stay in the checkout.
    os.environ["TMPDIR"] = str(SCRATCH)


def _seconds_since_process_start() -> float:
    """Wall time since this interpreter was exec'd (kernel start time)."""
    with open("/proc/self/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _setup_probe(workload: str, seed: int) -> float:
    """One more fresh-interpreter set-up of ``workload``, in a child."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=60,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr[-2000:]}")
    return float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])


def _loop(workload, indices, tracer, phase, seconds=None, probe=None, midpoints=None):
    """Closed loop: requests back to back; returns (wall, pairs, latencies).

    With a speed ``probe``, the host's speed is sampled between requests;
    that time is not part of the returned wall time.  Each request's
    midpoint time is appended to ``midpoints`` when it is given.
    """
    latencies = []
    pairs = 0
    started = time.perf_counter()

    def elapsed():
        spent = probe.seconds_spent if probe is not None else 0.0
        return time.perf_counter() - started - spent

    for index in indices:
        if probe is not None:
            probe.maybe_sample()
        if seconds is not None and elapsed() >= seconds:
            break
        request_started = time.perf_counter()
        latency, count = workload.request(index, tracer, phase)
        if midpoints is not None:
            midpoints.append((request_started + time.perf_counter()) / 2)
        latencies.append(latency)
        pairs += count
    return elapsed(), pairs, latencies


def _end_to_end(workload, seconds):
    """The timed phase's metrics, scaled to the reference host speed.

    Each request's latency is divided by the host slowdown interpolated at
    its midpoint, and throughput is scaled by the same factor averaged over
    the requests' time.
    """
    from itertools import count

    from perfbench.speed import SpeedProbe
    from perfbench.stats import median, quantile, tail_percentile

    probe = SpeedProbe()
    midpoints = []
    try:
        wall, pairs, latencies = _loop(
            workload, count(), None, "timed", seconds, probe, midpoints
        )
        probe.sample()  # the speed after the last request
    finally:
        probe.close()
    scaled = [
        latency / probe.slowdown_at(midpoint)
        for latency, midpoint in zip(latencies, midpoints)
    ]
    slowdown = sum(latencies) / sum(scaled)
    raw = {
        "pairs_per_s": pairs / wall,
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_p95_ms": 1000.0 * quantile(latencies, 0.95),
    }
    tail = tail_percentile(len(latencies))
    workload.notes.append(
        f"{len(latencies)} requests; highest percentile with >= 10 samples "
        f"beyond: {'none' if tail is None else f'p{tail:g}'}"
    )
    workload.notes.append(
        f"host slowdown {slowdown!r} over the requests ({len(probe.samples)} loop "
        "timings); unscaled: "
        + ", ".join(f"{name} = {value!r}" for name, value in raw.items())
    )
    return {
        "pairs_per_s": raw["pairs_per_s"] * slowdown,
        "latency_p50_ms": 1000.0 * median(scaled),
        "latency_p95_ms": 1000.0 * quantile(scaled, 0.95),
    }


def _per_layer(workload):
    from perfbench.tracing import REQUEST, Instrumentation, Tracer, layer_self_times

    indices = range(workload.trace_requests)
    plain_wall, plain_pairs, _ = _loop(workload, indices, None, "untraced")
    workload.scrape()
    tracer = Tracer()
    with Instrumentation(tracer):
        wall, pairs, _ = _loop(workload, indices, tracer, "traced")
    workload.scrape()
    self_s = layer_self_times(tracer.spans)
    counts = tracer.counts
    accounted = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    if workload.front_door_is_wire:
        accounted += self_s.get(REQUEST, 0.0)
    lp_requests = counts["lp.requests"]
    solves = counts["lp.block_calls"] + counts["lp.scalar_calls"]
    # A layer this workload never reaches reads 0.
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            metrics[name] = float(counts[name])
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name.split(".")[0], 0.0)
    metrics.update({
        "cache.hit_ratio": counts["cache.hits"] / counts["cache.gets"]
        if counts["cache.gets"] else 0.0,
        "lp.solves_avoided_ratio": (lp_requests - solves) / lp_requests
        if lp_requests else 0.0,
        "trace.overhead_ratio": (plain_pairs / plain_wall) / (pairs / wall) - 1.0,
        "trace.unaccounted_ratio": (wall - accounted) / wall,
    })
    metrics.update(workload.layer_metrics())
    if metrics["trace.unaccounted_ratio"] > UNACCOUNTED_WARN:
        print(
            f"WARNING: {metrics['trace.unaccounted_ratio']:.1%} of traced wall "
            f"time is in no layer (warn above {UNACCOUNTED_WARN:.0%})",
            file=sys.stderr,
        )
    workload.notes.append(
        f"traced {workload.trace_requests} requests in {wall:.3f} s "
        f"(untraced {plain_wall:.3f} s); spans {len(tracer.spans)}"
    )
    return metrics


def _pin() -> int:
    """Rewrite ``expected_status.json`` from this program's verdicts.

    Covers the mixed generator's batches ``0..PIN_SEEDS-1`` (cold-batch
    decides renamed copies of batches 7, 8, ...; batch 7 is E13) and every
    wide-queries shape.  The verdicts are recorded only if the store they
    were written to passes the independent audit.
    """
    import random

    from perfbench import inputs
    from perfbench.checks import PINNED_PATH, VerdictCheck, key_hash
    from repro.service import ContainmentService
    from repro.workloads.generators import mixed_containment_pairs

    pairs = [
        pair
        for seed in range(PIN_SEEDS)
        for pair in mixed_containment_pairs(inputs.COLD_BATCH_PAIRS, seed=seed)
    ]
    for index in range(64):
        pairs += inputs.wide_batch(random.Random(index), "")
    unique = {}
    for q1, q2 in pairs:
        unique.setdefault(key_hash(q1, q2), (q1, q2))
    store = SCRATCH / "pin.sqlite"
    store.unlink(missing_ok=True)
    with ContainmentService(store_path=str(store), on_error="capture") as service:
        report = service.run(list(unique.values()))
    check = VerdictCheck({})
    statuses = {}
    for key, result in zip(unique, report.results):
        check.add(key, result.status.value)
        statuses[key] = result.status.value
    check.audit([str(store)])
    store.unlink()
    if check.failed:
        print("\n".join(check.problems), file=sys.stderr)
        return 1
    document = {
        "covers": f"mixed_containment_pairs(128, seed) for seeds 0-{PIN_SEEDS - 1} "
                  "(E13 is seed 7) and every wide-queries shape",
        "statuses": dict(sorted(statuses.items())),
    }
    with open(PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(statuses)} canonical keys")
    return 0


def _run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, one after another."""
    from perfbench.workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            print(f"## {name} --trace {trace}", flush=True)
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                cwd=str(ROOT),
            ).returncode
            worst = max(worst, code)
    return worst


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    # A terminated run still unwinds its finally blocks and stops its fleet.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The run and every process it starts share one core: a closed loop
    # never runs two requests at once, the host-speed probe then times the
    # core the program runs on, and warm-fleet's hops between client,
    # gateway and replica never wait for a wake-up on the other core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _bootstrap()
    from perfbench.checks import VerdictCheck, live_children, load_pinned, reap
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up seconds, tear down")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned expected statuses")
    args = parser.parse_args()
    if args.pin:
        return _pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)

    # Short: fleet socket paths must fit in a sockaddr_un (108 bytes).
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir()
    check = VerdictCheck(load_pinned())
    workload = WORKLOADS[args.workload](args.seed, scratch, check, bool(args.trace))
    hygiene = []
    try:
        try:
            workload.setup()
            setup_self = _seconds_since_process_start()
            if args.setup_only:
                print(json.dumps({"setup_s": setup_self}))
                return 0
            if args.trace:
                metrics = _per_layer(workload)
            else:
                metrics = _end_to_end(workload, args.seconds)
        finally:
            hygiene = workload.close()
        workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        setups = [setup_self] + [
            _setup_probe(args.workload, args.seed) for _ in range(SETUPS - 1)
        ]
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = workload.peak_rss
        workload.notes.append("set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    # Whatever else was started must have been waited for by now.
    strays = live_children()
    hygiene += [f"pid {pid} outlived the run and was stopped" for pid in strays]
    reap(strays, timeout=5.0)
    units = PER_LAYER if args.trace else END_TO_END

    for note in workload.notes:
        print(f"# {note}")
    for problem in (hygiene + check.problems)[:20]:
        print(f"# FAILED: {problem}")
    failed = check.failed + len(hygiene)
    attempted = max(check.attempted, 1)
    print(f"# pinned statuses checked: {check.pinned_checked} of {check.attempted} pairs")
    print(f"failed_ratio = {failed / attempted!r} ratio")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
