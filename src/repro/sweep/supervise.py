"""The sweep worker pool: forked workers supervised over pipes.

Every multi-process sweep runs on :func:`run_supervised`.  It forks up
to ``min(workers, len(points))`` long-lived workers, each talking to
the parent over its own pipe.  A worker loops: receive
``(index, attempt)``, evaluate that point, send the outcome back.  The
parent hands eligible attempts to idle workers and watches every pipe,
so each failure mode touches only the point that caused it:

* **worker death** — a worker whose pipe hits EOF without a reply
  (killed from outside, OOM-killed, or killed by the point itself) is
  reaped, and the attempt becomes a structured ``WorkerDied`` failure;
* **timeout** — an attempt that exceeds ``timeout_s`` gets its worker
  SIGKILL'd and reaped, and becomes a ``PointTimeout`` failure.

A dead or killed worker is replaced by a fresh fork when the next
attempt needs one, so a sweep forks at most ``workers`` processes plus
one per death or timeout kill.

With a :class:`SupervisorPolicy` the pool also defends the sweep:

* **retry** — failed attempts are retried up to
  ``SupervisorPolicy.max_attempts`` with exponential backoff whose
  jitter derives from the point's content seed
  (:func:`retry_delay_s`), so retry *schedules* are deterministic and
  worker-count independent even though wall-clock is not;
* **quarantine** — a point that exhausts its attempts becomes a
  ``PointQuarantined`` error record carrying the per-attempt failure
  history.  Quarantined records are byte-identical at any worker
  count and are never written to the result cache, so a later run
  (with the poison fixed) retries them.

Without a policy the pool runs each point once with no deadline.  A
failure is then delivered as the plain :func:`_evaluate` error record
(``strict=False``, byte-identical to in-process evaluation), or
re-raised in the parent as the original exception (``strict=True``).
A worker death under ``strict=True`` raises :class:`PointQuarantined`
with its single ``WorkerDied`` failure.

Every worker is killed and joined before :func:`run_supervised`
returns — including on interrupt and on exception — so a sweep never
leaks orphan processes.

The supervised counters (``sweep.retries``, ``sweep.timeouts``,
``sweep.worker_deaths``, ``sweep.quarantined``) land in the metrics
registry passed by the caller, which is how the experiment service
exports them as ``/metrics`` families per job.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable

from ..core.rng import derive_seed
from ..obs import MetricsRegistry
from .spec import canonical_config
from .targets import get_target

__all__ = [
    "PointQuarantined",
    "SupervisorPolicy",
    "current_attempt",
    "retry_delay_s",
    "run_supervised",
]

#: Attempt number of the point evaluation running in *this* process
#: (1-based).  Set by a pool worker before each evaluation; stays 1 in
#: in-process evaluation.  Chaos policies (:mod:`repro.chaos`) read it
#: to sabotage only early attempts.
_ATTEMPT = 1

#: Supervisor poll tick (seconds): the upper bound on how late a
#: timeout kill, retry launch, or interrupt check can fire.
_TICK_S = 0.02


def current_attempt() -> int:
    """The 1-based attempt number of the current point evaluation."""
    return _ATTEMPT


class PointQuarantined(RuntimeError):
    """A point exhausted its attempts under ``strict=True``.

    Carries the structured quarantine ``record`` (the same dict that
    ``strict=False`` would have attached to the :class:`PointResult`).
    """

    def __init__(self, record: dict) -> None:
        super().__init__(
            f"sweep point quarantined after {record['attempts']} attempts: "
            f"{record['message']}"
        )
        self.record = record


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor defends a sweep against its own points.

    Attributes:
        timeout_s: Per-*attempt* wall-clock budget; an overdue attempt
            is killed and counted as a ``PointTimeout`` failure.
            ``None`` disables the watchdog (hangs then block forever,
            as unsupervised).
        max_attempts: Total attempts per point (first try included).
            A point still failing after the last attempt is
            quarantined.
        backoff_base_s: Backoff before attempt 2; doubles per attempt.
        backoff_cap_s: Upper bound on any single backoff delay.
    """

    timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")


def retry_delay_s(policy: SupervisorPolicy, point_seed: int, attempt: int) -> float:
    """Backoff before ``attempt`` (>= 2) of the point seeded ``point_seed``.

    Exponential in the attempt number, capped, with a deterministic
    jitter factor in ``[0.5, 1.0]`` derived from the point's content
    seed — two sweeps of the same spec retry on the same schedule, and
    colliding points (many retries at once) spread out without any
    shared RNG state.
    """
    base = min(policy.backoff_cap_s, policy.backoff_base_s * 2 ** (attempt - 2))
    jitter = derive_seed(point_seed, f"sweep/backoff/{attempt}") % 2**20 / 2**20
    return base * (0.5 + 0.5 * jitter)


def _evaluate(
    target: str, config: dict, seed: int, epoch: float, capture: bool = False
) -> tuple[dict | None, dict | None, float, float]:
    """Run one target and time it (in-process or in a pool worker).

    Returns ``(result, error, start_offset, elapsed)`` with the start
    offset relative to the sweep's epoch, so the parent can lay the
    point out as a span on a shared wall-clock timeline.  With
    ``capture`` an exception becomes a structured error record instead
    of propagating — the traceback is formatted *here*, in the failing
    process, so the record is identical whether the point ran
    in-process or in a pool worker.
    """
    start = time.perf_counter()
    error = None
    if capture:
        try:
            result = get_target(target)(config, seed)
        except Exception as exc:  # noqa: BLE001 - converted to a record
            result = None
            error = {
                "target": target,
                "config": canonical_config(config),
                "seed": seed,
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
    else:
        result = get_target(target)(config, seed)
    end = time.perf_counter()
    return result, error, start - epoch, end - start


def _quarantine_record(
    *, target: str, config: dict, seed: int, failures: list[dict]
) -> dict:
    """The terminal error record of a poison point.

    Everything in it is a pure function of the point and its
    deterministic failure history — no pids, no wall-clock — so
    quarantined points serialize byte-identically at any worker count.
    """
    kinds = [f["type"] for f in failures]
    return {
        "target": target,
        "config": canonical_config(config),
        "seed": seed,
        "type": "PointQuarantined",
        "message": f"quarantined after {len(failures)} failed attempts "
        f"({', '.join(kinds)})",
        "attempts": len(failures),
        "failures": [
            {"attempt": attempt, "type": f["type"], "message": f["message"]}
            for attempt, f in enumerate(failures, 1)
        ],
    }


def _worker_main(conn, inherited, target, configs, seeds, epoch, capture):
    """Pool worker: evaluate the points the parent sends, until EOF.

    ``inherited`` are the parent-side pipe ends this fork copied; closing
    them leaves the parent their only holder, so a parent that dies
    without cleaning up (SIGKILL) gives every idle worker an EOF.

    A point that raises with ``capture`` off (strict, unsupervised)
    sends the exception itself, for the parent to re-raise.  If the
    point kills this process — or its reply cannot be pickled — nothing
    is sent and the parent reads EOF, which is precisely the
    worker-death signal.
    """
    global _ATTEMPT
    for end in inherited:
        end.close()
    while True:
        try:
            index, _ATTEMPT = conn.recv()
        except EOFError:
            return
        try:
            reply = _evaluate(target, configs[index], seeds[index], epoch, capture)
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            reply = exc
        conn.send(reply)


class _Worker:
    """One pool process, its pipe, and the attempt it is running."""

    __slots__ = ("proc", "conn", "index", "attempt", "deadline", "started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


def run_supervised(
    *,
    target: str,
    configs: list[dict],
    seeds: list[int],
    indices: list[int],
    policy: SupervisorPolicy | None,
    workers: int,
    epoch: float,
    strict: bool,
    finish: Callable[[int, dict | None, dict | None, float, float], None],
    interrupted: Callable[[], bool],
    metrics: MetricsRegistry | None = None,
) -> None:
    """Evaluate ``indices`` of ``configs`` on a pool of forked workers.

    Called by :func:`repro.sweep.run_sweep` for every multi-process
    sweep and for every supervised one (``policy`` given), even at
    ``workers=1``.  Settled points (success, plain failure, or terminal
    quarantine) are delivered through ``finish``; with ``strict`` the
    first terminal failure raises instead (see the module docstring).

    ``interrupted`` is polled every tick; when it fires, every worker
    is killed and joined before the :class:`InterruptedError` sentinel
    propagates to the runner (which re-raises its public
    :class:`repro.sweep.SweepInterrupted`).
    """
    supervised = policy is not None
    if policy is None:
        policy = SupervisorPolicy(timeout_s=None, max_attempts=1)
    capture = supervised or not strict
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    size = min(workers, len(indices))

    # Unsupervised pools count into a throwaway registry, so the
    # caller's metrics gain no supervisor families.
    registry = metrics if metrics is not None and supervised else MetricsRegistry()
    retries = registry.counter("sweep.retries")
    timeouts = registry.counter("sweep.timeouts")
    deaths = registry.counter("sweep.worker_deaths")
    quarantined = registry.counter("sweep.quarantined")

    #: Heap of (not_before, index, attempt) — attempts waiting to launch.
    pending: list[tuple[float, int, int]] = [(0.0, i, 1) for i in indices]
    heapq.heapify(pending)
    idle: list[_Worker] = []
    busy: list[_Worker] = []
    failures: dict[int, list[dict]] = {}

    def _launch(index: int, attempt: int) -> None:
        if idle:
            worker = idle.pop()
        else:
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_end, [parent_end] + [w.conn for w in busy],
                      target, configs, seeds, epoch, capture),
                daemon=True,
            )
            proc.start()
            child_end.close()  # parent keeps only its end: EOF == worker gone
            worker = _Worker(proc, parent_end)
        worker.index, worker.attempt = index, attempt
        worker.started = time.monotonic()
        worker.deadline = (
            None if policy.timeout_s is None else worker.started + policy.timeout_s
        )
        try:
            worker.conn.send((index, attempt))
        except OSError:
            pass  # the worker is already gone; its EOF reports the death
        busy.append(worker)

    def _reap(worker: _Worker) -> None:
        busy.remove(worker)
        worker.proc.join()
        worker.conn.close()

    def _fail(worker: _Worker, record: dict) -> None:
        if supervised:
            record["attempt"] = worker.attempt
        history = failures.setdefault(worker.index, [])
        history.append(record)
        if worker.attempt < policy.max_attempts:
            retries.inc()
            delay = retry_delay_s(policy, seeds[worker.index], worker.attempt + 1)
            heapq.heappush(
                pending, (time.monotonic() + delay, worker.index, worker.attempt + 1)
            )
            return
        elapsed = time.monotonic() - worker.started
        if not supervised and not strict:
            finish(worker.index, None, record, 0.0, elapsed)
            return
        terminal = _quarantine_record(
            target=target,
            config=configs[worker.index],
            seed=seeds[worker.index],
            failures=history,
        )
        quarantined.inc()
        if strict:
            raise PointQuarantined(terminal)
        finish(worker.index, None, terminal, 0.0, elapsed)

    def _parent_failure(worker: _Worker, kind: str, message: str) -> None:
        record = {
            "target": target,
            "config": canonical_config(configs[worker.index]),
            "seed": seeds[worker.index],
            "type": kind,
            "message": message,
        }
        _fail(worker, record)

    try:
        while pending or busy:
            if interrupted():
                raise InterruptedError
            now = time.monotonic()
            while pending and pending[0][0] <= now and len(busy) < size:
                _, index, attempt = heapq.heappop(pending)
                _launch(index, attempt)

            if not busy:
                time.sleep(_TICK_S)
                continue
            ready = connection.wait([w.conn for w in busy], timeout=_TICK_S)
            for worker in [w for w in busy if w.conn in ready]:
                try:
                    reply = worker.conn.recv()
                except EOFError:
                    # The process ended without reporting: it was killed
                    # (possibly by the point itself) or crashed hard.
                    _reap(worker)
                    deaths.inc()
                    _parent_failure(
                        worker,
                        "WorkerDied",
                        f"worker process died without reporting "
                        f"(exitcode {worker.proc.exitcode})",
                    )
                    continue
                busy.remove(worker)
                idle.append(worker)
                if isinstance(reply, BaseException):
                    raise reply
                result, error, started, elapsed = reply
                if error is None:
                    finish(worker.index, result, None, started, elapsed)
                else:
                    _fail(worker, error)

            now = time.monotonic()
            for worker in [w for w in busy if w.deadline is not None and now >= w.deadline]:
                worker.proc.kill()
                _reap(worker)
                timeouts.inc()
                _parent_failure(
                    worker,
                    "PointTimeout",
                    f"attempt exceeded timeout_s={policy.timeout_s:g}",
                )
    finally:
        # Whatever path exits — done, interrupt, strict raise — no
        # worker may outlive the sweep.
        workers_left = idle + busy
        for worker in workers_left:
            worker.proc.kill()
        for worker in workers_left:
            worker.proc.join()
            worker.conn.close()
