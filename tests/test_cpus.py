import threading
import time

import pytest

from landmark_emotion import cpus
from landmark_emotion.cpus import stripes


@pytest.mark.parametrize("n_cpus", [1, 2, 8])
def test_stripes_split_the_indices(monkeypatch, n_cpus):
    """W = max(min(CPUs, count), 1) threads; stripe s is the indices s, s + W, … in that order on
    one thread, stripe 0 on the calling thread; results come back in index order; one CPU or
    a count of 0 or 1 starts no thread."""
    monkeypatch.setattr(cpus, "usable_cpus", lambda: n_cpus)
    before = threading.active_count()
    for count in (0, 1, n_cpus + 1):
        calls = []  # (index, thread, threads alive) per call

        def fn(i):
            calls.append((i, threading.current_thread(), threading.active_count()))
            return f"result {i}"

        with stripes(count) as run:
            assert run(fn) == [f"result {i}" for i in range(count)]
        w = max(min(n_cpus, count), 1)
        assert sorted(i for i, _, _ in calls) == list(range(count))
        for s in range(min(w, count)):
            stripe = [(i, thread) for i, thread, _ in calls if i % w == s]
            assert [i for i, _ in stripe] == list(range(s, count, w))
            assert len({thread for _, thread in stripe}) == 1
        assert all(thread is threading.current_thread() for i, thread, _ in calls if i % w == 0)
        assert len({thread for _, thread, _ in calls}) <= w
        assert all(alive <= before + w - 1 for _, _, alive in calls)
        assert threading.active_count() == before


def test_one_pool_serves_every_run_of_a_block(monkeypatch):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 3)
    threads = set()

    def fn(i):
        threads.add(threading.current_thread())
        time.sleep(0.001)
        return -i

    before = threading.active_count()
    with stripes(7) as run:
        for _ in range(20):
            assert run(fn) == [-i for i in range(7)]
    assert len(threads) <= 3
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 1])  # the first index of stripe 0, and of a helper's stripe
def test_failure_is_raised_after_the_other_stripes_stop(monkeypatch, failing):
    monkeypatch.setattr(cpus, "usable_cpus", lambda: 4)
    finished = []

    def fn(i):
        if i == failing:
            raise ArithmeticError(f"index {i} failed")
        time.sleep(0.02 * (1 + i % 4))  # the last stripes run longest
        finished.append(i)
        return i

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"index {failing} failed"):
        with stripes(8) as run:
            run(fn)
    # the failing stripe stopped at its failure; every other stripe ran to its end
    assert sorted(finished) == [i for i in range(8) if i % 4 != failing]
    assert threading.active_count() == before


def test_stripes_use_at_most_the_usable_cpus():
    threads = set()
    with stripes(16) as run:
        assert run(lambda i: threads.add(threading.current_thread()) or i) == list(range(16))
    assert threading.current_thread() in threads
    assert len(threads) <= cpus.usable_cpus()
