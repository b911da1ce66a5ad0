"""When a call may fork worker processes, how many, and the one pool that
runs them.

``forest.cross_validate`` and ``corpus.parse_corpus`` both ask
``worker_count`` first, so the two agree on when forking is safe, and both
run their parts through ``in_order``. Its workers are forked, so they
inherit the caller's memory rather than receive it; each is pinned to one
CPU of the caller's mask, takes the next part that no worker has taken
until none is left, and sends back what the part returned. The caller
gets every part's result in part order.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing import connection
from typing import Any, Callable

__all__ = ["in_order", "worker_count"]


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


def _work(writer: Any, part: Callable[[int], tuple], parts: int, taken: Any, cpu: int) -> None:
    """A forked worker's body, on CPU ``cpu`` alone. Until every part is
    taken, it takes the next part index ``k`` from the shared count
    ``taken`` and sends ``part(k)``, a (header, buffers) pair, to
    ``writer``: the header pickled with ``k``, or what the part raised,
    then each buffer as raw bytes. Last comes a header of None."""
    try:
        os.sched_setaffinity(0, {cpu})
        while True:
            with taken.get_lock():
                k = taken.value
                taken.value = k + 1
            if k >= parts:
                break
            header, buffers = part(k)
            writer.send((True, (k, header, len(buffers))))
            for buffer in buffers:
                writer.send_bytes(buffer)
    except Exception as exc:
        writer.send((False, exc))
        return
    writer.send((True, None))


def _receive(worker: Any, reader: Any) -> tuple | None:
    """The next part ``_work`` sent: (k, header, buffers), each buffer as
    the bytes it arrived as; None once the worker has sent every part it
    took. A part that raised makes this raise the same; a worker that ended
    before its None, RuntimeError."""
    try:
        ok, sent = reader.recv()
        if not ok:
            raise sent
        if sent is None:
            return None
        k, header, n_buffers = sent
        return k, header, [reader.recv_bytes() for _ in range(n_buffers)]
    except EOFError:
        worker.join()
        raise RuntimeError(f"a worker process exited with code {worker.exitcode} "
                           f"before sending every part it took") from None


def in_order(part: Callable[[int], tuple], parts: int, workers: int,
             take: Callable[[Any, list[bytes]], None]) -> None:
    """Call ``take(header, buffers)`` with ``part(k)`` for every ``k`` in
    ``range(parts)``, in that order, each ``part(k)`` run in one of
    ``workers`` forked processes. Worker ``i`` runs on CPU ``i`` modulo the
    CPUs in this process's affinity mask. ``part(k)`` returns a (header,
    buffers) pair: the header is pickled, and each buffer, anything that
    exposes its bytes, reaches ``take`` as the one bytes object it was
    received into.

    An exception that a part raises is raised here unchanged; a worker that
    exits before it has sent every part it took raises ``RuntimeError``
    with its exit code. Every worker has ended when this returns or
    raises, also when ``take`` raises.
    """
    cpus = sorted(os.sched_getaffinity(0))
    context = multiprocessing.get_context("fork")
    taken = context.Value("i", 0)
    processes: list[Any] = []
    live: dict[Any, Any] = {}
    arrived: dict[int, tuple] = {}
    try:
        for i in range(workers):
            reader, writer = context.Pipe(duplex=False)
            # closed here once the worker has its copy, so that a worker
            # that dies leaves its pipe with no writer
            with writer:
                worker = context.Process(target=_work,
                                         args=(writer, part, parts, taken, cpus[i % len(cpus)]))
                worker.start()
            processes.append(worker)
            live[reader] = worker
        # until every worker has sent its None: each sends every part it
        # took before it, so every part has then been taken here
        k = 0
        while live:
            for reader in connection.wait(list(live)):
                result = _receive(live[reader], reader)
                if result is None:
                    live.pop(reader).join()
                    reader.close()
                else:
                    arrived[result[0]] = result[1:]
            while k in arrived:
                take(*arrived.pop(k))
                k += 1
    except BaseException:
        for worker in processes:
            worker.terminate()
        raise
    finally:
        for reader in live:
            reader.close()
        for worker in processes:
            worker.join()
