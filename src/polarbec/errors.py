"""Exception types shared across the toolkit, the memory check behind one,
and the worker-count rule of the threaded steps."""

import os


class PolarBECError(Exception):
    """Base class for toolkit-specific failures."""


class LevelTooLargeError(PolarBECError):
    """A level enumeration or materialization exceeded the memory budget."""


class InvalidCandidateError(PolarBECError):
    """A candidate decay function violates its endpoint/positivity contract."""


class DegenerateFitError(PolarBECError):
    """Too few usable decay samples to fit an exponent."""


class InfeasibleTargetError(PolarBECError):
    """No channel selection can satisfy the requested target."""


class EmptyCodeError(PolarBECError):
    """A construction produced no surviving channels."""


class DecodingInconsistencyError(PolarBECError):
    """A resolved message contradicts a known value; indicates a harness bug."""


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
