"""Independent work items on every CPU this process may use, in input order.

`ordered_map(fn, items)` forks `min(allowed CPUs, number of items)` worker
processes (one worker means the builtin `map`, in-process). Items and
results must pickle; this process's main thread does all the pickling, so
no helper thread holds memory of its own. A worker's exception reaches
the caller with its own type and message. Workers ignore SIGINT, so Ctrl-C
interrupts only the caller, and they are terminated when the generator
finishes, is closed or raises. Limit the CPUs with `taskset`.
"""
from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import signal
from multiprocessing.connection import wait

AHEAD = 4  # items taken per worker beyond the oldest one not yet yielded


def cpu_count() -> int:
    """CPUs this process may run on, the most workers `ordered_map` starts."""
    return len(os.sched_getaffinity(0))


def ordered_map(fn, items):
    """Yield `fn(item)` for each item, in input order (see the module docstring)."""
    items = iter(items)
    head = list(itertools.islice(items, cpu_count()))
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, items))
        return
    ctx = multiprocessing.get_context("fork")
    workers, idle = [], []
    try:
        for _ in head:
            conn, theirs = ctx.Pipe()
            workers.append(ctx.Process(target=_serve, args=(fn, theirs), daemon=True))
            workers[-1].start()
            theirs.close()
            idle.append(conn)
        todo = enumerate(itertools.chain(head, items))
        queued, busy, done, first, more = collections.deque(), {}, {}, 0, True
        while True:
            while queued and idle:
                conn = idle.pop()
                index, item = queued.popleft()
                conn.send(item)
                busy[conn] = index
            # take the next item (maybe building its inputs) while the workers run
            if more and len(queued) + len(busy) + len(done) < AHEAD * len(workers):
                pulled = next(todo, None)
                more = pulled is not None
                if more:
                    queued.append(pulled)
            elif first in done:
                yield done.pop(first)
                first += 1
            elif not busy:
                return
            else:
                for conn in wait(list(busy)):
                    ok, value = conn.recv()
                    if not ok:
                        raise value
                    done[busy.pop(conn)] = value
                    idle.append(conn)
    finally:
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
