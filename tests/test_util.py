import logging
import sys
import threading
import time

import numpy as np
import pytest

from riplab import _util
from riplab._util import blas_threads, derive_seed, parallel_map, philox, rekey

needs_openblas = pytest.mark.skipif(_util._openblas_threads() is None,
                                    reason="numpy's OpenBLAS thread symbols not found")


@needs_openblas
def test_blas_threads_caps_and_restores():
    get, set_ = _util._openblas_threads()
    before = get()
    try:
        set_(2)
        with blas_threads(1):
            assert get() == 1
        assert get() == 2
        with blas_threads(0):              # never below one thread
            assert get() == 1
        set_(1)
        with blas_threads(8):              # never above the current count
            assert get() == 1
        assert get() == 1
    finally:
        set_(before)


@needs_openblas
def test_parallel_map_gives_each_worker_its_share_of_cores(monkeypatch):
    get, set_ = _util._openblas_threads()
    before = get()
    monkeypatch.setattr(_util.os, "sched_getaffinity", lambda pid: set(range(8)))
    try:
        set_(8)
        seen = parallel_map(lambda _: get(), list(range(6)), threads=3)
        assert seen == [2] * 6                        # 8 cores // 3 workers
        assert parallel_map(lambda _: get(), [0, 1], threads=4) == [4, 4]   # 2 workers
        assert parallel_map(lambda _: get(), [0], threads=4) == [8]         # serial
        assert get() == 8
    finally:
        set_(before)


def test_parallel_map_keeps_item_order_without_blas_symbols(monkeypatch):
    monkeypatch.setattr(_util, "_openblas_threads", lambda: None)
    names = parallel_map(lambda i: (i, threading.current_thread().name), list(range(20)),
                         threads=4)
    assert [i for i, _ in names] == list(range(20))
    with blas_threads(1):
        pass


@pytest.fixture
def fresh_pool(monkeypatch):
    """Make parallel_map build a pool of its own, sized for the given core count."""
    def use(cores):
        monkeypatch.setattr(_util, "available_cores", lambda: cores)
        monkeypatch.setattr(_util, "_pool", None)
    yield use
    if _util._pool is not None:
        _util._pool.shutdown(wait=False)


@pytest.mark.parametrize("cores", [1, 2])
def test_nested_maps_finish_when_every_pool_thread_is_busy(fresh_pool, cores):
    # each outer item runs an inner map whose helpers queue behind busy pool
    # threads; the inner callers must run those items instead of waiting
    fresh_pool(cores)
    got = []

    def inner(item):
        time.sleep(0.001)
        return item

    def outer(i):
        return parallel_map(inner, [(i, j) for j in range(6)], threads=4)

    t = threading.Thread(target=lambda: got.append(parallel_map(outer, list(range(8)),
                                                                threads=4)))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert got == [[[(i, j) for j in range(6)] for i in range(8)]]


def test_every_item_runs_and_the_lowest_failing_index_raises():
    ran = []

    def fn(i):
        ran.append(i)
        if i == 3:
            time.sleep(0.05)               # item 7 raises first
        if i in (3, 7):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as info:
        parallel_map(fn, list(range(12)), threads=4)
    assert info.value.args == (3,)
    assert sorted(ran) == list(range(12))


def test_successive_maps_start_no_threads(fresh_pool):
    fresh_pool(2)
    # three items that wait for each other: the caller and both pool threads
    meet = threading.Barrier(3, timeout=30)
    parallel_map(lambda _: meet.wait(), [0, 1, 2], threads=3)
    after_first = threading.active_count()
    for _ in range(200):
        assert parallel_map(abs, [-1, -2, -3], threads=3) == [1, 2, 3]
    assert threading.active_count() <= after_first


def test_results_do_not_depend_on_the_thread_count():
    def spectrum(seed):
        a = philox(seed).standard_normal((24, 24))
        return np.linalg.eigvalsh(a + a.T).tobytes()

    items = list(range(40))
    with blas_threads(1):
        serial = parallel_map(spectrum, items, threads=1)
        assert parallel_map(spectrum, items, threads=2) == serial
        assert parallel_map(spectrum, items, threads=16) == serial


def test_missing_blas_symbol_logs_one_debug_line(monkeypatch, caplog):
    monkeypatch.setattr(_util, "_BLAS_GET", "no_such_blas_symbol")
    probe = _util._openblas_threads.__wrapped__
    with caplog.at_level(logging.DEBUG, logger="riplab"):
        assert probe() is None
    assert len(caplog.records) == 1
    assert caplog.records[0].levelno == logging.DEBUG


@needs_openblas
def test_nested_blas_caps_in_workers_restore_the_count():
    # greedy nets cap BLAS at one thread inside each worker; however those
    # blocks interleave, the pool's own block restores the count on exit
    from riplab.nets import greedy_separated_net

    get, set_ = _util._openblas_threads()
    before = get()
    interval = sys.getswitchinterval()
    items = [(dim, seed) for dim in (2, 3) for seed in range(8)]

    def build(item):
        return greedy_separated_net(item[0], 0.5, "ball", item[1]).points.tobytes()

    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        pooled = parallel_map(build, items, threads=8)
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)
    assert pooled == [build(item) for item in items]


@needs_openblas
def test_blas_caps_from_plain_threads_hold_until_the_last_block_closes():
    # eigenvalue stacks cap BLAS at one thread from whatever thread calls
    # them; a block that closes must not lift the cap of one still open
    get, set_ = _util._openblas_threads()
    before = get()
    interval = sys.getswitchinterval()
    seen = []

    def loop():
        for _ in range(300):
            with blas_threads(1):
                seen.append(get())

    threads = [threading.Thread(target=loop) for _ in range(6)]
    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)
    assert len(seen) == 6 * 300 and set(seen) == {1}


@pytest.mark.parametrize("key", [(2**64 - 1, 0), (12345, 2**32 + 7)],
                         ids=["top-key", "wide-row"])
@pytest.mark.parametrize("used", ["fresh", "mid-buffer", "spare-uint32"])
def test_rekey_gives_the_raws_of_a_new_philox(key, used):
    bg = np.random.Philox(key=np.array([3, 4], dtype=np.uint64))
    if used == "mid-buffer":
        bg.random_raw(3)
    elif used == "spare-uint32":
        np.random.Generator(bg).integers(0, 10, size=3)
        assert bg.state["has_uint32"] == 1
    fresh = np.random.Philox(key=np.array(key, dtype=np.uint64))
    assert np.array_equal(rekey(bg, *key).random_raw(9), fresh.random_raw(9))


def test_rekeyed_generator_draws_what_philox_draws():
    n, m = 20, 5
    rng = np.random.Generator(np.random.Philox())
    for t in range(4):
        rekey(rng.bit_generator, derive_seed(7, "rip-mc", t))
        got = rng.integers(0, n - np.arange(m))
        # a spare 32-bit half is left over for the next re-key to discard
        assert rng.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(got, philox(7, "rip-mc", t).integers(0, n - np.arange(m)))
