"""Seed derivation, deterministic parallel mapping, and atomic file writes."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

U64 = np.uint64
# thread-count controls exported by the OpenBLAS that numpy wheels bundle
_BLAS_GET = "scipy_openblas_get_num_threads64_"
_BLAS_SET = "scipy_openblas_set_num_threads64_"

log = logging.getLogger("riplab")


def derive_seed(*parts) -> int:
    """Mix arbitrary labels and integers into a 64-bit seed.

    SHA-256 over a canonical byte encoding, truncated to 8 bytes; stable
    across platforms and process runs, collision-safe for test harnesses.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, (int, np.integer)):
            h.update(b"i" + int(p).to_bytes(16, "little", signed=True))
        elif isinstance(p, str):
            h.update(b"s" + p.encode("utf-8") + b"\x00")
        elif isinstance(p, float):
            h.update(b"f" + np.float64(p).tobytes())
        else:
            raise TypeError(f"cannot mix {type(p).__name__} into a seed")
    return int.from_bytes(h.digest()[:8], "little")


def philox(*key_parts) -> np.random.Generator:
    """Counter-based generator keyed by the mixed parts (order-independent use)."""
    return np.random.Generator(np.random.Philox(key=U64(derive_seed(*key_parts))))


def rekey(bg: np.random.Philox, key0: int, key1: int = 0) -> np.random.Philox:
    """Reset ``bg`` to the start of the ``Philox(key=[key0, key1])`` stream; returns it.

    A Philox stream is fixed by its key, so the reset bit generator gives
    the raws of a new one, also to a ``Generator`` built on it: the counter,
    the buffered raws and the spare 32-bit half all go back to their
    initial values.  Resetting is cheaper than constructing a Philox, which
    gathers OS entropy only to discard it for the key.
    ``Generator(rekey(bg, derive_seed(*parts)))`` draws what
    ``philox(*parts)`` draws.
    """
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": np.zeros(4, U64), "key": np.array([key0, key1], U64)},
                "buffer": np.zeros(4, U64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
    return bg


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's OpenBLAS thread count, or None without them.

    dlsym on numpy's core extension also searches the libraries it links,
    so this reaches the OpenBLAS that numpy loaded without knowing its path.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = getattr(lib, _BLAS_GET), getattr(lib, _BLAS_SET)
    except (AttributeError, OSError) as exc:
        log.debug("BLAS thread count left alone: %s", exc)
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# caps of the blas_threads blocks open in any thread, and the count before the first
_blas_lock = threading.Lock()
_blas_caps: list[int] = []
_blas_before = 0


@contextlib.contextmanager
def blas_threads(n: int):
    """Cap numpy's OpenBLAS at n threads inside the block, then restore it.

    The count is process-global: it applies to BLAS calls from every thread
    of the process.  While blocks are open in any threads, BLAS runs at the
    smallest of their caps, and the last block to close restores the count
    the first one found, however the blocks interleave.  It never raises
    the count, so a lower OPENBLAS_NUM_THREADS stays in force.  Without the
    OpenBLAS symbols it does nothing.
    """
    global _blas_before
    ctl = _openblas_threads()
    if ctl is None:
        yield
        return
    get, set_ = ctl
    cap = max(1, n)
    with _blas_lock:
        if not _blas_caps:
            _blas_before = get()
        _blas_caps.append(cap)
        set_(min([_blas_before, *_blas_caps]))
    try:
        yield
    finally:
        with _blas_lock:
            _blas_caps.remove(cap)
            set_(min([_blas_before, *_blas_caps]))


def available_cores() -> int:
    """Cores this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:         # no affinity query on this platform
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """The process's one pool of ``available_cores()`` threads, built on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=available_cores(),
                                       thread_name_prefix="riplab")
        return _pool


def parallel_map(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Map fn over items on the calling thread plus helpers from one shared pool.

    Up to ``min(threads, len(items))`` workers run the map: the calling
    thread and as many helper tasks on the process-wide pool, built once
    with ``available_cores()`` threads.  Each worker takes the next item
    index from a shared cursor, and the caller waits only for items that
    others have already taken, so a map called from inside another map's
    item finishes even when every pool thread is busy: the caller then
    runs every item itself.  Results are returned in item order regardless
    of completion order, so callers relying on order-independent
    reductions get identical output for every thread count.  Every item
    runs even when some raise; the exception of the lowest failing index
    is raised.  While the map runs, BLAS gets the cores left per worker
    (at least one thread), so workers times BLAS threads does not
    oversubscribe the cores.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    done = threading.Event()
    taken = finished = 0

    def work():
        nonlocal taken, finished
        while True:
            with lock:
                i = taken
                if i == len(items):
                    return
                taken += 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:       # raised by the caller once all items ran
                errors[i] = exc
            with lock:
                finished += 1
                if finished == len(items):
                    done.set()

    with blas_threads(available_cores() // workers):
        pool = _shared_pool()
        # helpers' futures are never read: work() keeps every error, and a
        # helper still queued when the items run out returns at once
        for _ in range(workers - 1):
            pool.submit(work)
        work()
        done.wait()
    if errors:
        raise errors[min(errors)]
    return results


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
