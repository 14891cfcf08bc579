"""Circuit breaker for the evaluation engine's process pool.

The engine's original failure policy — retry a broken pool once, then
degrade to serial *permanently* — loses all parallelism for the rest
of the run on the first transient double-fault (an OOM kill during a
spike, a container restart).  The breaker upgrades that policy to the
standard three-state machine:

* **closed** — pool dispatch allowed; consecutive failures counted;
* **open** — after ``failure_threshold`` consecutive failures the pool
  is bypassed (serial evaluation) for ``cooldown_s``;
* **half-open** — after the cooldown, exactly **one** probe is
  admitted at a time: a success closes the breaker (the pool
  recovered), a failure re-opens it and restarts the cooldown.  While
  the probe is in flight every other ``allow()`` is refused — without
  that gate several concurrent callers could all slip through the
  half-open window, and one slow probe racing one failure flaps the
  breaker open/closed/open.  A probe whose outcome is never reported
  (the prober died, its connection vanished) would otherwise wedge the
  breaker in half-open forever, so a probe older than
  ``probe_timeout_s`` is abandoned and ``allow()`` hands the probe
  slot to the next caller.

Time comes from an injectable ``clock`` so tests and chaos campaigns
assert recovery through the state machine, never through sleeps.  All
transitions run under an internal lock: the cluster master drives one
breaker per node from its socket reader threads.
"""

from __future__ import annotations

import enum
import hashlib
import random
import threading
import time
from typing import Callable, Optional

from repro.sim.stats import StatGroup


def backoff_delay(job_id: str, attempt: int, base_s: float, cap_s: float) -> float:
    """Capped full-jitter retry backoff: uniform in [0, min(cap, base*2^n)].

    Jitter decorrelates retries of jobs that failed together (a worker
    crash takes a batch down at once); the cap bounds how long a flaky
    job can stall.  The draw is seeded from the job id and attempt, so
    campaigns replay the exact delays.  The job service's retries and
    the cluster master's redispatches share it.
    """
    ceiling = min(cap_s, base_s * (2.0 ** attempt))
    if ceiling <= 0:
        return 0.0
    seed = int.from_bytes(
        hashlib.blake2b(job_id.encode(), digest_size=8).digest(), "little"
    )
    return random.Random(seed + attempt).uniform(0.0, ceiling)


DEFAULT_FAILURE_THRESHOLD = 2
DEFAULT_COOLDOWN_S = 30.0


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Three-state breaker with half-open probing."""

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
        probe_timeout_s: Optional[float] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if probe_timeout_s is not None and probe_timeout_s < 0:
            raise ValueError(
                f"probe_timeout_s must be >= 0, got {probe_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        #: a half-open probe unresolved past this is abandoned and the
        #: probe slot handed to the next caller (default: the cooldown).
        self.probe_timeout_s = (
            cooldown_s if probe_timeout_s is None else probe_timeout_s
        )
        self.clock = clock
        self.state = BreakerState.CLOSED
        self.stats = StatGroup("breaker")
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: True while a half-open probe is in flight and unresolved.
        self._probe_in_flight = False
        self._probe_started_at = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the protected resource be used right now?

        Transitions open → half-open when the cooldown has elapsed and
        admits **one** probe: until that probe's outcome is reported via
        :meth:`record_success` / :meth:`record_failure`, every other
        ``allow()`` returns False, so concurrent callers cannot pile
        into the half-open window and flap the breaker.
        """
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                if self._probe_in_flight:
                    # The probe's outcome may never arrive (prober died,
                    # connection reaped): past the timeout the slot is
                    # handed over instead of wedging half-open forever.
                    age = self.clock() - self._probe_started_at
                    if age < self.probe_timeout_s:
                        self.stats.counter("probe_rejections").increment()
                        return False
                    self.stats.counter("probe_timeouts").increment()
                self._probe_in_flight = True
                self._probe_started_at = self.clock()
                self.stats.counter("probes").increment()
                return True
            if self.state is BreakerState.OPEN:
                if self.clock() - self._opened_at >= self.cooldown_s:
                    self.state = BreakerState.HALF_OPEN
                    self._probe_in_flight = True
                    self._probe_started_at = self.clock()
                    self.stats.counter("probes").increment()
                else:
                    return False
            return True

    def record_success(self) -> None:
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                self.stats.counter("recoveries").increment()
            self.state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self.state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._trip_locked()

    def trip(self) -> None:
        """Open immediately (e.g. the pool cannot even be created)."""
        with self._lock:
            self._trip_locked()

    def reset(self) -> None:
        """Back to closed with a clean slate (e.g. the protected node
        reconnected): failure count and any pending probe are dropped."""
        with self._lock:
            if self.state is not BreakerState.CLOSED:
                self.stats.counter("resets").increment()
            self.state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def _trip_locked(self) -> None:
        if self.state is not BreakerState.OPEN:
            self.stats.counter("opens").increment()
        self.state = BreakerState.OPEN
        self._opened_at = self.clock()
        self._consecutive_failures = 0
        self._probe_in_flight = False
