"""The CPUs this process may use, and the one striped map that spreads work over them."""
from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import TypeVar

T = TypeVar("T")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def stripes(count: int) -> Iterator[Callable[[Callable[[int], T]], list[T]]]:
    """A ``run(fn)`` that returns ``[fn(0), …, fn(count - 1)]``, computed on W threads.

    W = max(min(usable CPUs, count), 1).  Stripe s is the indices s, s + W,
    s + 2W, …, run in that order on one thread: stripe 0 on the calling
    thread, the others on the W - 1 threads of one helper pool that lives as
    long as the ``with`` block, so a caller that maps once per round starts
    its helpers once.  Results come back in index order, so they do not
    depend on W.  A one-CPU process, or a count of 0 or 1, starts no thread.
    Leaving the block, also by an exception from any stripe, waits for every
    running stripe.
    """
    w = max(min(usable_cpus(), count), 1)

    def run(fn: Callable[[int], T]) -> list[T]:
        def stripe(s: int) -> list[T]:
            return [fn(i) for i in range(s, count, w)]

        running = [pool.submit(stripe, s) for s in range(1, w)]
        done = [stripe(0)] + [future.result() for future in running]
        return [done[i % w][i // w] for i in range(count)]

    # an executor starts a thread only on submit, so one stripe starts none
    with ThreadPoolExecutor(max_workers=max(w - 1, 1)) as pool:
        yield run
