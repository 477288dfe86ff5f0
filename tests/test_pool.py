"""The strip pool of ``attention._pooled``: where strips run, OpenBLAS's thread count, errors, nesting, fork.

A generator forward with no tape whose image map is more than WORKERS strips
opens one pool of WORKERS threads for all its maps and holds OpenBLAS at one
thread until every strip has finished; ``_by_strips`` hands its strips to the
pool of the calling thread.  Under a tape, outside a forward or inside a worker
they run in order in the calling thread.  Tests that cut a map themselves enter
``_pooled`` first, as the forward does.  Every test here reads the count
through the same OpenBLAS control the pool uses, so they need it to be found.
"""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from relight import attention as A
from relight import generator as G
from relight import tensor as T
from relight import windows as W
from relight.tensor import Tensor

pytestmark = pytest.mark.skipif(A._BLAS_THREADS is None, reason="numpy's OpenBLAS thread control not found")

WIDE = G.GeneratorConfig(height=40, width=256)  # five 8-row strips in the local branch and the head
JOIN_S = 60.0  # longest wait for a thread that should finish in well under a second


@pytest.fixture
def blas(monkeypatch):
    """OpenBLAS's (get, set) thread count functions and the list of every count relight sets,
    in order; the test's own sets are not listed, and the count is put back after the test."""
    get, put = A._BLAS_THREADS
    before, sets = get(), []

    def recording_put(count):
        sets.append(count)
        put(count)

    monkeypatch.setattr(A, "_BLAS_THREADS", (get, recording_put))
    yield get, put, sets
    put(before)


class CountingLock:
    """A lock that counts the times it is taken."""

    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.lock.acquire()
        self.taken += 1

    def __exit__(self, *exc):
        self.lock.release()


def numbered_rows(n: int) -> Tensor:
    """A [2, n, 4] map whose row r holds r everywhere, so a join out of order shows."""
    return Tensor(np.broadcast_to(np.arange(n, dtype=np.float64)[:, None], (2, n, 4)).copy())


def pooled_map(n: int, fn) -> tuple[Tensor, set[threading.Thread]]:
    """fn(lo, hi) on the 8-row strips of range(n) inside a pool of this thread, as a forward cuts
    its maps; the join and the threads that ran the strips."""
    threads = set()

    def strip(lo, hi):
        threads.add(threading.current_thread())
        return fn(lo, hi)

    with A._pooled(n, 8):
        return A._by_strips(n, strip, 8), threads


def serial_forward(monkeypatch, blas, x: Tensor, w) -> np.ndarray:
    """G.forward with the strips in order in this thread and OpenBLAS at one thread."""
    get, put, _ = blas
    before = get()
    with monkeypatch.context() as m:
        m.setattr(A, "_BLAS_THREADS", None)
        put(1)
        try:
            return G.forward(x, w).data
        finally:
            put(before)


def test_forward_restores_the_blas_thread_count(monkeypatch, blas):
    get, put, sets = blas
    put(2)
    w = G.init_weights(WIDE, seed=40)
    x = Tensor(np.random.default_rng(40).uniform(size=(3, 40, 256)))
    inside, by_strips = [], A._by_strips

    def spy(n, fn, rows):
        def logged(lo, hi):
            inside.append(get())
            return fn(lo, hi)

        return by_strips(n, logged, rows)

    monkeypatch.setattr(A, "_by_strips", spy)
    G.forward(x, w)
    assert get() == 2
    assert len(inside) > 1 and set(inside) == {1}  # the strips ran with OpenBLAS at one thread
    # The local branch, the global branch's two mhsa maps and the head all pool, yet the count
    # is set once and restored once: none is restored between maps.
    assert sets == [1, 2]


def test_one_forward_runs_all_its_pooled_maps_on_one_pool(monkeypatch, blas):
    w = G.init_weights(WIDE, seed=48)
    x = Tensor(np.random.default_rng(48).uniform(size=(3, 40, 256)))
    threads, pooled_maps, by_strips, rows = [], [], A._by_strips, W._rows
    both_running = threading.Barrier(2, timeout=JOIN_S)

    def spy(n, fn, size):
        if n <= A.WORKERS * size:  # one strip, run whole in the thread that cut it
            return by_strips(n, fn, size)
        pooled_maps.append(n)

        def logged(lo, hi):
            threads.append(threading.current_thread())
            return fn(lo, hi)

        return by_strips(n, logged, size)

    def first_two_at_once(t, lo, hi):
        if t is x and lo < 2 * A._image_rows(256):  # the local branch's first two strips wait for each other
            both_running.wait()
        return rows(t, lo, hi)

    monkeypatch.setattr(A, "_by_strips", spy)
    monkeypatch.setattr(W, "_rows", first_two_at_once)
    G.forward(x, w)
    # The local branch, the global branch's two mhsa maps and the head: four pooled maps, whose
    # strips all ran on the same WORKERS threads, none of them the caller.
    assert pooled_maps == [40, 160, 160, 40]
    assert len(set(threads)) == A.WORKERS and threading.current_thread() not in threads


def test_a_branch_outside_a_forward_runs_its_strips_in_order_here(monkeypatch, blas):
    _, _, sets = blas
    p = G.init_weights(WIDE, seed=49).params
    x = Tensor(np.random.default_rng(49).uniform(size=(3, 40, 256)))
    starts, rows = [], W._rows

    def logged_rows(t, lo, hi):
        if t is x:
            starts.append((lo, threading.current_thread()))
        return rows(t, lo, hi)

    monkeypatch.setattr(W, "_rows", logged_rows)
    A.local_branch(x, p, "local", G.GeneratorConfig.local_heads)
    band = A._image_rows(256)
    assert starts == [(lo, threading.current_thread()) for lo in range(0, 40, band)]
    assert sets == []


def test_an_error_in_the_third_strip_reaches_the_caller_and_the_count_is_restored(monkeypatch, blas):
    get, put, _ = blas
    put(2)
    w = G.init_weights(WIDE, seed=41)
    x = Tensor(np.random.default_rng(41).uniform(size=(3, 40, 256)))
    error, raised_in, rows = RuntimeError("third strip"), [], W._rows

    def failing_rows(t, lo, hi):
        if t is x and lo == 2 * A._image_rows(256):  # the local branch's third strip of x
            raised_in.append(threading.current_thread())
            raise error
        return rows(t, lo, hi)

    monkeypatch.setattr(W, "_rows", failing_rows)
    with pytest.raises(RuntimeError) as info:
        G.forward(x, w)
    assert info.value is error
    assert raised_in and raised_in[0] is not threading.current_thread()  # it raised in a worker
    assert get() == 2


def test_pooled_output_equals_the_in_order_output_bitwise(monkeypatch, blas):
    w = G.init_weights(WIDE, seed=42)
    x = Tensor(np.random.default_rng(42).uniform(size=(3, 40, 256)))
    assert np.array_equal(G.forward(x, w).data, serial_forward(monkeypatch, blas, x, w))


def test_strips_run_on_the_workers_without_a_tape_and_in_this_thread_under_one():
    x = numbered_rows(64)
    both_running = threading.Barrier(2, timeout=JOIN_S)
    threads, tapes = [], []

    def record(lo, hi):
        threads.append(threading.current_thread())
        tapes.append(T._active_tape())
        return W._rows(x, lo, hi)

    def first_two_at_once(lo, hi):
        if lo < 16:  # the first two strips wait for each other
            both_running.wait()
        return record(lo, hi)

    with A._pooled(64, 8):
        assert np.array_equal(A._by_strips(64, first_two_at_once, 8).data, x.data)  # joined in order
    assert len(threads) == 8 and len(set(threads)) == A.WORKERS
    assert threading.current_thread() not in threads
    assert tapes == [None] * 8

    threads.clear()
    with T.Tape() as tape, A._pooled(64, 8):
        assert np.array_equal(A._by_strips(64, record, 8).data, x.data)
    assert threads == [threading.current_thread()] * 8
    assert tapes[-1] is tape


def test_a_pooled_map_leaves_no_worker_running():
    x = numbered_rows(64)
    joined, workers = pooled_map(64, lambda lo, hi: W._rows(x, lo, hi))
    assert np.array_equal(joined.data, x.data)
    assert workers and threading.current_thread() not in workers
    assert not any(worker.is_alive() for worker in workers)  # the pool was shut down


def test_a_strip_that_cuts_strips_finishes_inside_a_worker():
    x, outer, in_order = numbered_rows(32), [], []

    def cuts_strips(lo, hi):
        worker = threading.current_thread()
        outer.append(worker)

        def nested(lo, hi):
            in_order.append(threading.current_thread() is worker)
            return W._rows(x, lo, hi)

        return A._by_strips(32, nested, 8)  # four strips, more than WORKERS

    result = []
    caller = threading.Thread(target=lambda: result.append(pooled_map(32, cuts_strips)[0]))
    caller.start()
    caller.join(JOIN_S)
    assert not caller.is_alive(), "a nested _by_strips deadlocked the pool"
    assert np.array_equal(result[0].data, np.concatenate([x.data] * 4, axis=-2))
    assert len(outer) == 4 and caller not in outer
    assert in_order == [True] * 16  # every nested strip ran in the worker that cut it


def test_two_threads_enhancing_at_once_get_the_serial_outputs(monkeypatch, blas):
    # Each forward holds OpenBLAS at one thread from its first pooled map to its last, so it
    # rounds as a forward at one thread does, and the two forwards take the hold in turn.
    get, put, sets = blas
    w = G.init_weights(WIDE, seed=43)
    xs = [Tensor(np.random.default_rng(seed).uniform(size=(3, 40, 256))) for seed in (43, 44)]
    expected = [serial_forward(monkeypatch, blas, x, w) for x in xs]
    put(2)
    start = threading.Barrier(2, timeout=JOIN_S)
    got = [[], []]

    def enhance(i):
        start.wait()
        for _ in range(3):
            got[i].append(G.forward(xs[i], w).data)

    users = [threading.Thread(target=enhance, args=(i,)) for i in range(2)]
    for user in users:
        user.start()
    for user in users:
        user.join(JOIN_S)
    assert not any(user.is_alive() for user in users)
    for outs, want in zip(got, expected):
        assert len(outs) == 3 and all(np.array_equal(out, want) for out in outs)
    assert sets == [1, 2] * 6 and get() == 2  # one hold per forward, each restoring the count it found


def test_a_64_forward_and_a_taped_forward_never_set_the_count(blas):
    _, _, sets = blas
    rng = np.random.default_rng(46)
    w64 = G.init_weights(G.GeneratorConfig(), seed=46)
    G.forward(Tensor(rng.uniform(size=(3, 64, 64))), w64)  # every map is one strip
    with T.Tape():
        G.forward(Tensor(rng.uniform(size=(3, 40, 256))), G.init_weights(WIDE, seed=46))
    assert sets == []


def test_a_pooled_map_inside_a_held_forward_takes_the_lock_once(monkeypatch, blas):
    # The lock is not reentrant, so a map that took it again inside the forward's pool would deadlock.
    w = G.init_weights(WIDE, seed=47)
    x = Tensor(np.random.default_rng(47).uniform(size=(3, 40, 256)))
    expected = serial_forward(monkeypatch, blas, x, w)
    lock, result = CountingLock(), []
    monkeypatch.setattr(A, "_pool_lock", lock)
    caller = threading.Thread(target=lambda: result.append(G.forward(x, w).data))
    caller.start()
    caller.join(JOIN_S)
    assert not caller.is_alive(), "a pooled map deadlocked the forward that holds the lock"
    assert lock.taken == 1 and np.array_equal(result[0], expected)


def test_many_callers_at_once_leave_the_blas_thread_count_as_they_found_it(blas):
    # More callers than cores, switching threads as often as the interpreter allows: a caller
    # that saved another's count of 1 as its own would leave OpenBLAS at one thread.
    get, put, _ = blas
    put(2)
    x, inside, wrong = numbered_rows(64), [], []

    def fn(lo, hi):
        inside.append((get(), threading.current_thread()))
        return W._rows(x, lo, hi)

    def call():
        for _ in range(20):
            if not np.array_equal(pooled_map(64, fn)[0].data, x.data):
                wrong.append(threading.current_thread())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(JOIN_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert wrong == [] and len(inside) == 4 * 20 * 8 and {count for count, _ in inside} == {1}
    assert not {thread for _, thread in inside} & set(callers)  # every strip ran on a worker
    assert get() == 2


def pooled_map_in_a_child() -> int | None:
    """Fork a child that runs one pooled map of 8 strips and exits 0 if its join is right and its
    strips ran on workers; return its exit code, or None if it had not exited after JOIN_S seconds
    and was killed."""
    x = numbered_rows(64)
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            joined, threads = pooled_map(64, lambda lo, hi: W._rows(x, lo, hi))
            ok = np.array_equal(joined.data, x.data) and bool(threads) and threading.current_thread() not in threads
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + JOIN_S
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        return None
    return os.waitstatus_to_exitcode(done[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_forked_child_runs_its_own_pool():
    # Every forward makes its own pool, so the child makes its own after the fork.
    x = numbered_rows(64)
    _, threads = pooled_map(64, lambda lo, hi: W._rows(x, lo, hi))
    assert threads and threading.current_thread() not in threads
    assert pooled_map_in_a_child() == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_child_forked_while_another_thread_holds_the_pool_runs_its_own(blas):
    # The child inherits the lock as held, by a thread it does not have; the fork handler
    # gives it a fresh one.
    x, started, release, result = numbered_rows(64), threading.Event(), threading.Event(), []

    def first_strip_waits(lo, hi):
        if lo == 0:
            started.set()
            release.wait(JOIN_S)
        return W._rows(x, lo, hi)

    holder = threading.Thread(target=lambda: result.append(pooled_map(64, first_strip_waits)[0]))
    holder.start()
    try:
        assert started.wait(JOIN_S)  # the holder is inside its pool, so it holds the lock
        with warnings.catch_warnings():  # newer Pythons warn of a fork with threads, which is the point here
            warnings.simplefilter("ignore", DeprecationWarning)
            code = pooled_map_in_a_child()
    finally:
        release.set()
        holder.join(JOIN_S)
    assert code == 0
    assert not holder.is_alive() and np.array_equal(result[0].data, x.data)
