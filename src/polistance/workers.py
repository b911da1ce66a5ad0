"""When a call may fork worker processes, and how many.

``forest.cross_validate`` and ``corpus.parse_corpus`` both fork their
workers, which inherit the caller's memory rather than receive it, and
both ask ``worker_count`` first, so the two agree on when forking is safe.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

__all__ = ["worker_count"]


def worker_count(limit: int) -> int:
    """Processes to fork for ``limit`` independent parts: one per CPU this
    process may run on, at most ``limit``. 1 means in-process, as where fork
    or CPU affinity is missing; in a daemonic process, which may have no
    children; and in a process with other threads, since a forked child
    gets only the calling thread, and a lock another thread held stays held
    there."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), limit)
