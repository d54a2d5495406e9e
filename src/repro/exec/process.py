"""Process-pool executor: true multi-core execution for Python-bound work.

Built on :class:`concurrent.futures.ProcessPoolExecutor` with two
constraints the in-process backends don't have:

* **Pickling.**  The task callable and every item cross a process
  boundary.  Dataflow call sites therefore ship *module-level task
  objects* whose state is plain data (records, resources, derived
  seeds) — never closures.  Unpicklable tasks fail fast on the
  coordinator with :class:`~repro.core.exceptions.ExecutorError`
  before any worker is spawned.
* **Chunked dispatch.**  Items are dispatched in contiguous chunks
  (``chunk_size`` items per IPC round-trip) so per-task overhead is
  amortized.  Chunks are contiguous and results are consumed in
  submission order, so chunking never perturbs output order.

Workers carry no tracer (spans/counters are no-ops there); tasks return
their local counters as data and the coordinator folds them into the
active trace, so process runs lose no accounting.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import repro.obs as obs
from repro.core.exceptions import ExecutorError
from repro.exec.base import Executor

__all__ = ["ProcessExecutor", "ensure_picklable"]


def ensure_picklable(obj: Any, what: str) -> None:
    """Raise :class:`ExecutorError` if ``obj`` cannot cross a process
    boundary, naming the offending payload."""
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - pickling can raise anything
        raise ExecutorError(
            f"{what} is not picklable and cannot run on the process "
            f"backend: {type(exc).__name__}: {exc}. Use a module-level "
            f"function or task object (no closures/lambdas, no locks), "
            f"or select the thread/serial backend."
        ) from exc


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap start, inherits loaded modules);
    the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ProcessExecutor(Executor):
    """Run tasks on a pool of worker processes.

    The pool is created per map call and sized
    ``min(workers, len(items))``; a single item runs inline.  Unless a
    call passes ``chunk_size``, items are dispatched in chunks that give
    each worker a few (straggler rebalancing without per-item IPC).
    """

    backend = "process"

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(int(workers), 1)
        self._mp_context = _preferred_context()

    def imap_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> Iterator[Any]:
        items = list(items)
        if not items:
            return iter(())
        ensure_picklable(fn, "the task callable (and its captured state)")
        chunk = max(1, chunk_size or math.ceil(len(items) / (self.workers * 4)))
        obs.add_counter("exec.process.tasks", len(items))
        obs.add_counter("exec.process.dispatches", math.ceil(len(items) / chunk))
        if len(items) == 1:
            # one task gains nothing from a pool: run it inline, as the
            # thread backend does (it has passed the pickle check)
            return (fn(item) for item in items)
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)),
            mp_context=self._mp_context,
        )

        def results() -> Iterator[Any]:
            try:
                yield from pool.map(fn, items, chunksize=chunk)
            except BrokenProcessPool as exc:
                raise ExecutorError(
                    "a worker process died mid-map (killed, out of memory, "
                    "or crashed unpicklably); the job cannot be trusted — "
                    "re-run, or select the thread/serial backend"
                ) from exc
            finally:
                pool.shutdown(wait=True)

        return results()
