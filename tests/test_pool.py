"""The strip pool of ``attention._pooled``: where strips run, OpenBLAS's thread count, errors, nesting, fork.

A generator forward with no tape whose image map is more than WORKERS strips
opens one pool of WORKERS threads for all its maps and holds OpenBLAS at one
thread until every strip has finished; ``_by_strips`` hands its strips to the
pool of the calling thread.  Under a tape, outside a forward or inside a worker
they run in the calling thread as they are issued, in the same order; the two
stages of forward's pipeline are tested both ways.  Tests that cut a map
themselves enter ``_pooled`` first, as the forward does.  Every test here reads
the count through the same OpenBLAS control the pool uses, so they need it to
be found.
"""

import os
import sys
import threading
import time
import warnings
import weakref

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

    def spy(n, fn, rows, *second_stage):
        def logged(lo, hi):
            inside.append(get())
            return fn(lo, hi)

        return by_strips(n, logged, rows, *second_stage)

    monkeypatch.setattr(A, "_by_strips", spy)
    G.forward(x, w)
    assert get() == 2
    assert len(inside) > 1 and set(inside) == {1}  # the strips ran with OpenBLAS at one thread
    # The global branch's two mhsa maps and the pipeline of both branches and the head all pool,
    # yet the count is set once and restored once: none is restored between maps.
    assert sets == [1, 2]


def test_one_forward_runs_all_its_pooled_maps_on_one_pool(monkeypatch, blas):
    w = G.init_weights(WIDE, seed=48)
    x = Tensor(np.random.default_rng(48).uniform(size=(3, 40, 256)))
    threads, pooled_maps, by_strips, rows = [], [], A._by_strips, W._rows
    both_running = threading.Barrier(2, timeout=JOIN_S)

    def logged(fn):
        def strip(*args):
            threads.append(threading.current_thread())
            return fn(*args)

        return strip

    def spy(n, fn, size, head=None, context=0):
        if n <= A.WORKERS * size:  # one strip, run whole in the thread that cut it
            return by_strips(n, fn, size, head, context)
        pooled_maps.append(n)
        return by_strips(n, logged(fn), size, head and logged(head), context)

    def first_two_at_once(t, lo, hi):
        if t is x and lo < 2 * A._image_rows(256):  # the local branch's first two strips wait for each other
            both_running.wait()
        return rows(t, lo, hi)

    monkeypatch.setattr(A, "_by_strips", spy)
    monkeypatch.setattr(W, "_rows", first_two_at_once)
    G.forward(x, w)
    # The global branch's two mhsa maps and the pipeline: three pooled maps, whose strips, of both
    # stages of the pipeline, all ran on the same WORKERS threads, none of them the caller.
    assert pooled_maps == [160, 160, 40]
    assert len(set(threads)) == A.WORKERS and threading.current_thread() not in threads


def context_rows(x: Tensor, context: int):
    """A pipeline head for x's map: it checks that feat is rows [lo - context, hi + context) of x,
    clipped to the map, and returns rows [lo, hi)."""

    def head(feat, lo, hi):
        top, bot = max(0, lo - context), min(x.shape[1], hi + context)
        assert np.array_equal(feat.data, x.data[:, top:bot])
        return W._rows(feat, lo - top, hi - top)

    return head


def test_a_pipeline_outside_a_forward_runs_here_in_issue_order_and_drops_what_no_head_reads(blas):
    # Five strips: each first-stage strip is issued WORKERS strips ahead of the head, a head once the
    # first-stage strips it reads are done, and a first-stage strip dropped once no later head reads it.
    _, _, sets = blas
    x, events, made = numbered_rows(40), [], {}
    head = context_rows(x, 2)

    def first(lo, hi):
        events.append(("first", lo, threading.current_thread()))
        out = W._rows(x, lo, hi)
        made[lo] = weakref.ref(out)
        return out

    def logged_head(feat, lo, hi):
        alive = [a for a, ref in sorted(made.items()) if ref() is not None]
        events.append(("head", lo, alive, threading.current_thread()))
        return head(feat, lo, hi)

    joined = A._by_strips(40, first, 8, logged_head, 2)
    assert np.array_equal(joined.data, x.data)
    here = threading.current_thread()
    assert events == [
        ("first", 0, here), ("first", 8, here), ("first", 16, here), ("head", 0, [0, 8, 16], here),
        ("first", 24, here), ("head", 8, [0, 8, 16, 24], here),
        ("first", 32, here), ("head", 16, [8, 16, 24, 32], here),
        ("head", 24, [16, 24, 32], here), ("head", 32, [24, 32], here),
    ]
    assert sets == []


def test_a_pooled_pipeline_starts_each_head_once_the_strips_it_reads_are_done():
    # No worker waits on another strip: the caller issues a head only once its context strips are done.
    x, lock, log = numbered_rows(64), threading.Lock(), []
    head = context_rows(x, 2)

    def logged(stage, fn):
        def strip(*args):
            with lock:
                log.append(("start", stage, args[-2], threading.current_thread()))
            out = fn(*args)
            with lock:
                log.append(("end", stage, args[-2], threading.current_thread()))
            return out

        return strip

    with A._pooled(64, 8):
        joined = A._by_strips(64, logged("first", lambda lo, hi: W._rows(x, lo, hi)), 8, logged("head", head), 2)
    assert np.array_equal(joined.data, x.data)
    at = {event[:3]: k for k, event in enumerate(log)}
    for lo in range(0, 64, 8):
        assert all(at["end", "first", a] < at["start", "head", lo] for a in (lo - 8, lo, lo + 8) if 0 <= a < 64)
    assert len(log) == 4 * 8 and threading.current_thread() not in {event[3] for event in log}


@pytest.mark.parametrize("stage", ["first", "head"])
def test_an_error_in_the_third_strip_of_either_stage_reaches_the_caller_and_the_count_is_restored(
    monkeypatch, blas, stage
):
    get, put, _ = blas
    put(2)
    w = G.init_weights(WIDE, seed=41)
    x = Tensor(np.random.default_rng(41).uniform(size=(3, 40, 256)))
    error, raised_in, by_strips, third = RuntimeError(f"third {stage} strip"), [], A._by_strips, 2 * A._image_rows(256)

    def failing(fn):
        def strip(*args):  # (lo, hi) or, for a head, (feat, lo, hi)
            if args[-2] == third:
                raised_in.append(threading.current_thread())
                raise error
            return fn(*args)

        return strip

    def spy(n, fn, rows, head=None, context=0):
        if head is not None:  # the pipeline of forward
            fn, head = (failing(fn), head) if stage == "first" else (fn, failing(head))
        return by_strips(n, fn, rows, head, context)

    monkeypatch.setattr(A, "_by_strips", spy)
    with pytest.raises(RuntimeError) as info:
        G.forward(x, w)
    assert info.value is error
    assert raised_in and raised_in[0] is not threading.current_thread()  # it raised in a worker
    assert get() == 2


def strip_outputs(monkeypatch) -> dict:
    """Patch ``A._by_strips`` to keep the output of each strip of forward's pipeline, keyed by stage and first row."""
    outputs, by_strips = {}, A._by_strips

    def spy(n, fn, rows, head=None, context=0):
        if head is None:
            return by_strips(n, fn, rows)

        def first(lo, hi):
            outputs["first", lo] = out = fn(lo, hi)
            return out

        def second(feat, lo, hi):
            outputs["head", lo] = out = head(feat, lo, hi)
            return out

        return by_strips(n, first, rows, second, context)

    monkeypatch.setattr(A, "_by_strips", spy)
    return outputs


def test_pooled_output_equals_the_in_order_output_bitwise(monkeypatch, blas):
    # ... and so does every strip of both stages of the pipeline
    w = G.init_weights(WIDE, seed=42)
    x = Tensor(np.random.default_rng(42).uniform(size=(3, 40, 256)))
    outputs = strip_outputs(monkeypatch)
    pooled = G.forward(x, w).data
    pooled_strips = dict(outputs)
    outputs.clear()
    assert np.array_equal(pooled, serial_forward(monkeypatch, blas, x, w))
    keys = [(stage, lo) for stage in ("first", "head") for lo in range(0, 40, 8)]
    assert sorted(pooled_strips) == sorted(outputs) == keys
    assert all(np.array_equal(pooled_strips[key].data, outputs[key].data) for key in outputs)


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
