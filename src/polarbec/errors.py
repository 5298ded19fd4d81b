"""Exception types shared across the toolkit, the memory check behind one,
and the thread rule of the threaded steps: how many workers they use, and
how those workers share a step's chunks."""

import os
import threading


class PolarBECError(Exception):
    """Base class for toolkit-specific failures."""


class LevelTooLargeError(PolarBECError):
    """A level enumeration or materialization exceeded the memory budget."""


class DegenerateFitError(PolarBECError):
    """Too few usable decay samples to fit an exponent."""


class InfeasibleTargetError(PolarBECError):
    """No channel selection can satisfy the requested target."""


class EmptyCodeError(PolarBECError):
    """A construction produced no surviving channels."""


# threads that one threaded step runs on at most; more were not measured
_MAX_WORKERS = 2


def _worker_count() -> int:
    """Threads a threaded step may use: one per CPU in the process's affinity
    mask, at most _MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_chunks(work, chunks, workers: int) -> list:
    """[work(*c) for c in chunks], on at most workers threads, the calling
    thread among them; a helper is started only for a second chunk.

    Each worker takes the next chunk when it is free, so at most one chunk
    per worker is live; after an error no worker takes another, and the
    error is raised here once every helper has ended.
    """
    workers = min(workers, len(chunks))
    if workers < 2:
        return [work(*c) for c in chunks]
    from concurrent.futures import ThreadPoolExecutor

    done = [None] * len(chunks)
    lock = threading.Lock()
    pending = iter(range(len(chunks)))
    stop = False

    def run():
        nonlocal stop
        try:
            while not stop:
                with lock:
                    k = next(pending, None)
                if k is None:
                    return
                done[k] = work(*chunks[k])
        except BaseException:
            stop = True
            raise

    with ThreadPoolExecutor(workers - 1) as pool:  # shut down on any exit
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        run()
    for helper in helpers:
        helper.result()  # re-raises a helper's error
    return done


def _memory_budget() -> int:
    """Bytes a single plan may use: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _amount(size: int) -> str:
    # whole MiB from 1 MiB up; below it, where MiB would round to 0, bytes
    return f"{size / 2**20:,.0f} MiB" if size >= 2**20 else f"{size:,} bytes"


def _check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, a plan that needs over half of physical memory."""
    budget = _memory_budget()
    if need > budget:
        raise LevelTooLargeError(
            f"{what} would need about {_amount(need)}, over the budget of "
            f"{_amount(budget)} (half of physical memory)"
        )
