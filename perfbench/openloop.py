"""Open-loop request generator.

Requests arrive on a seeded Poisson schedule that does not wait for the
system: a slow reply does not delay the next arrival, it only makes the
next request late.  A small pool of sender threads (at most the number
of CPUs) takes requests in due order from a shared cursor, sleeps until
each one is due, and sends it with a blocking call.  When every sender
is busy the requests behind them wait, and because every latency is
timed from the request's *due* time, that wait is part of the latency a
user would have seen.  How late the senders ran (send time minus due
time) is reported separately, so a generator that cannot keep up is
visible rather than silently turning the loop closed.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OpenLoopResult", "max_senders", "poisson_offsets", "run_open_loop"]

#: head start given to the sender threads before the first due time
LEAD_S = 0.02
#: a sender still busy this long after the last due time means a hang
GRACE_S = 60.0


def max_senders() -> int:
    """Sender threads allowed on this machine: one per CPU."""
    return max(1, len(os.sched_getaffinity(0)))


def poisson_offsets(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from start) of ``n`` Poisson arrivals at ``rate``/s."""
    if rate <= 0 or n < 1:
        raise ValueError(f"need rate > 0 and n >= 1, got rate={rate}, n={n}")
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass
class OpenLoopResult:
    """Per-request timings of one open-loop phase (index = schedule order).

    ``latency_s`` is completion minus due time (NaN for a request that
    raised); ``late_s`` is send minus due time; ``sent_at`` is the
    ``time.perf_counter`` value at which each request was handed to the
    system; ``wall_s`` runs from the schedule's start to the end of the
    last request.
    """

    latency_s: np.ndarray
    late_s: np.ndarray
    sent_at: np.ndarray
    results: list[object]
    errors: dict[int, str] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def sent(self) -> int:
        return int(np.isfinite(self.sent_at).sum())

    @property
    def completed(self) -> int:
        return self.sent - len(self.errors)


def run_open_loop(
    send: Callable[[object], object],
    payloads: Sequence[object],
    offsets: np.ndarray,
    senders: int,
) -> OpenLoopResult:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds after the start.

    ``offsets`` must be non-decreasing.  ``senders`` is capped at
    :func:`max_senders`.  ``send`` is called from the sender threads;
    whatever it raises is recorded against that request, never
    propagated.  A sender still busy :data:`GRACE_S` after the last due
    time means the system hung: :class:`TimeoutError`.
    """
    n = len(payloads)
    if len(offsets) != n or n == 0:
        raise ValueError("need one offset per payload and at least one payload")
    senders = max(1, min(senders, max_senders(), n))
    latency = np.full(n, np.nan)
    late = np.full(n, np.nan)
    sent_at = np.full(n, np.nan)
    results: list[object] = [None] * n
    errors: dict[int, str] = {}
    cursor = iter(range(n))
    cursor_lock = threading.Lock()
    start = time.perf_counter() + LEAD_S

    def sender() -> None:
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + offsets[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            sent_at[i] = sent
            late[i] = sent - due
            try:
                results[i] = send(payloads[i])
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            latency[i] = time.perf_counter() - due

    threads = [
        threading.Thread(target=sender, name=f"openloop-{j}", daemon=True)
        for j in range(senders)
    ]
    for thread in threads:
        thread.start()
    deadline = start + float(offsets[-1]) + GRACE_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            raise TimeoutError(f"open loop still sending {GRACE_S}s after the last due time")
    return OpenLoopResult(
        latency_s=latency,
        late_s=late,
        sent_at=sent_at,
        results=results,
        errors=errors,
        wall_s=time.perf_counter() - start,
    )
