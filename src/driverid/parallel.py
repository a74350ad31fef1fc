"""Independent work items on every CPU this process may use, in input order.

`ordered_map(fn, items)` lists `items`, then forks `min(allowed CPUs,
len(items))` worker processes (one worker means the builtin `map`,
in-process). The workers inherit `fn` through the fork, so it may be a
`functools.partial` over large inputs (trips, training rows, a grid's
bundles) that are never pickled; items and results must pickle, so items
stay small. This process's main thread does all the pickling, so no helper
thread holds memory of its own.

A worker's exception reaches the caller with its own type and message, at
its item's position: items before it are yielded first, just as `map` would
have yielded them, whichever worker failed first; no item behind a failed
one is sent. A call made inside a worker, or while this process already
has workers, runs in-process, so nested calls never start more processes
than there are CPUs. Workers ignore SIGINT, so Ctrl-C interrupts only the
caller, and they are terminated when the generator finishes, is closed or
raises. Limit the CPUs with `taskset`.
"""
from __future__ import annotations

import collections
import multiprocessing
import os
import signal
from multiprocessing.connection import wait

_forked = False  # this process has workers, or is one


def cpu_count() -> int:
    """CPUs this process may run on, the most workers `ordered_map` starts."""
    return len(os.sched_getaffinity(0))


def ordered_map(fn, items):
    """Yield `fn(item)` for each item, in input order (see the module docstring)."""
    global _forked
    items = list(items)
    n_workers = 1 if _forked else min(cpu_count(), len(items))
    if n_workers < 2:
        yield from map(fn, items)
        return
    ctx = multiprocessing.get_context("fork")
    workers, idle = [], []
    _forked = True  # set before the fork: the workers inherit it
    try:
        for _ in range(n_workers):
            conn, theirs = ctx.Pipe()
            worker = ctx.Process(target=_serve, args=(fn, theirs), daemon=True)
            worker.start()
            workers.append(worker)
            theirs.close()
            idle.append(conn)
        queued, busy, done, first = collections.deque(enumerate(items)), {}, {}, 0
        while True:
            while queued and idle:
                conn = idle.pop()
                index, item = queued.popleft()
                conn.send(item)
                busy[conn] = index
            if first in done:
                ok, value = done.pop(first)
                if not ok:
                    raise value
                yield value
                first += 1
            elif not busy:
                return
            else:
                for conn in wait(list(busy)):
                    ok, value = conn.recv()
                    done[busy.pop(conn)] = ok, value
                    if not ok:  # items go out in input order: none behind a failed one is ever sent
                        queued.clear()
                    idle.append(conn)
    finally:
        _forked = False
        for worker in workers:
            worker.terminate()
            worker.join()


def _serve(fn, conn) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        item = conn.recv()
        try:
            conn.send((True, fn(item)))
        except Exception as err:
            conn.send((False, err))
