"""Correctness of served verdicts, store audits and process hygiene."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.service.canonical import pair_key
from repro.store import VerdictStore, structural_hash, verify_store

#: Pinned statuses, keyed by the first 16 hex digits of the structural hash
#: of each pair's canonical key (``run.py --pin`` rewrites the file).
PINNED_PATH = Path(__file__).resolve().parent / "expected_status.json"
#: The checkout: audit children import ``perfbench`` and ``repro`` from it.
ROOT = Path(__file__).resolve().parent.parent
HASH_DIGITS = 16
#: Processes verifying store records after the timed phase (one per core).
AUDIT_WORKERS = 2


def key_hash(q1, q2) -> str:
    return structural_hash(pair_key(q1, q2))[:HASH_DIGITS]


def load_pinned() -> Dict[str, str]:
    with open(PINNED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["statuses"]


class VerdictCheck:
    """Every served status, checked two ways.

    A pair whose canonical key is pinned must get the pinned status.  Every
    pair must also get the same status as every other pair of its canonical
    key in the run, whichever path served it (solved, in-batch dedup, plan
    cache, store, gateway dedup): that is the check for keys outside the
    pinned seeds.  UNKNOWN is a failure on these workloads.
    """

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.pinned_checked = 0
        self.problems: List[str] = []
        self.audited_records = 0
        self._first: Dict[str, str] = {}
        self._verified: Set[str] = set()

    def fail(self, pairs: int, reason: str) -> None:
        """A request that raised or answered ``ok=false``: all its pairs fail."""
        self.attempted += pairs
        self.failed += pairs
        self.problems.append(reason)

    def add(self, key: str, status: str) -> None:
        self.attempted += 1
        problem = None
        if status == "unknown":
            problem = f"{key}: UNKNOWN"
        expected = self.pinned.get(key)
        if expected is not None:
            self.pinned_checked += 1
            if status != expected:
                problem = f"{key}: served {status}, pinned {expected}"
        first = self._first.setdefault(key, status)
        if first != status:
            problem = f"{key}: served both {first} and {status}"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def audit(self, store_paths: Sequence[str]) -> None:
        """``verify_store`` on every store; failures and unchecked records fail.

        A record whose verdict and evidence are identical to one already
        taken (the same canonical key decided the same way by another
        batch's fresh service) is verified once: the audit is a pure function
        of exactly those fields.  The records are verified by
        ``AUDIT_WORKERS`` processes, since recounting witnesses costs about
        as much as deciding the batch did.
        """
        fresh = []
        for path in store_paths:
            with VerdictStore(path) as store:
                for hash_, record in store.records():
                    identity = json.dumps(
                        {k: v for k, v in record.items() if k != "provenance"},
                        sort_keys=True,
                    )
                    if identity not in self._verified:
                        self._verified.add(identity)
                        fresh.append((hash_, record))
        chunks = [fresh[i::AUDIT_WORKERS] for i in range(AUDIT_WORKERS)]
        reports = _audit_in_children(chunks)
        self.audited_records += sum(checked for checked, _, _ in reports)
        failures = [failure for _, found, _ in reports for failure in found]
        unchecked = sum(count for _, _, count in reports)
        if failures or unchecked:
            self.failed += len(failures) + unchecked
            self.problems.append(
                f"store audit: {len(failures)} failures, {unchecked} unchecked "
                f"({failures[:3]})"
            )


class _Records:
    """The one method of a store that ``verify_store`` reads."""

    def __init__(self, records):
        self._records = records

    def records(self):
        return iter(self._records)


def _audit_in_children(chunks) -> List[Tuple[int, list, int]]:
    """``verify_store`` on each chunk of records, one child process each.

    Plain child interpreters rather than a ``multiprocessing`` pool, whose
    helper process (the resource tracker) would outlive the benchmark.
    Every child is waited for, and killed first if the audit is cut short.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")])}
    children = []
    try:
        for chunk in chunks:
            child = subprocess.Popen(
                [sys.executable, "-m", "perfbench.checks"],
                cwd=str(ROOT), env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            children.append(child)
            # The benchmark keeps itself to one core; its audit need not.
            os.sched_setaffinity(child.pid, range(os.cpu_count()))
            # The child reads all of its input before it starts verifying,
            # so the next child's input is written while this one works.
            child.stdin.write(json.dumps(chunk).encode("utf-8"))
            child.stdin.close()
        reports = []
        for child in children:
            output = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(f"audit child exited with {child.returncode}")
            reports.append(tuple(json.loads(output)))
        return reports
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()


def _audit_child() -> None:
    """Verify the records on stdin; print (checked, failures, unchecked)."""
    records = [tuple(item) for item in json.load(sys.stdin)]
    report = verify_store(_Records(records))
    json.dump([report.checked, report.failures, report.unchecked], sys.stdout)


# ---------------------------------------------------------------------- #
# Process hygiene
# ---------------------------------------------------------------------- #
def _reaped(pid: int) -> bool:
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True  # already reaped (the subprocess module polls orphans)
    return done == pid


def reap(pids: Iterable[int], timeout: float = 15.0) -> List[int]:
    """Wait for our child processes to end; SIGKILL and report stragglers."""
    stragglers = []
    for pid in pids:
        deadline = time.monotonic() + timeout
        while not _reaped(pid):
            if time.monotonic() > deadline:
                stragglers.append(pid)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    return stragglers


def hygiene_problems(pids: Iterable[int], directory: Optional[Path]) -> List[str]:
    """Live pids and leftover socket files, after a fleet was stopped."""
    problems = [f"pid {pid} still alive" for pid in pids if Path(f"/proc/{pid}").exists()]
    if directory is not None and directory.exists():
        problems += [f"socket left at {path}" for path in directory.rglob("*.sock")]
    return problems


def live_children() -> List[int]:
    """Pids of this process's children that nothing has waited for yet."""
    found = set()
    for task in Path("/proc/self/task").iterdir():
        found.update(int(pid) for pid in (task / "children").read_text().split())
    return sorted(found)


def peak_rss_mb(pid: int) -> float:
    """The high-water resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


if __name__ == "__main__":
    _audit_child()
