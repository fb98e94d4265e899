"""The CLI's settings for glibc's malloc, so that the memory a command
leaves resident does not depend on where its blocks happened to lie.

Left to itself, glibc raises the size from which it maps a block on its
own pages (its mmap threshold) to the largest such block freed so far,
up to 32 MB, and keeps up to twice that much free at the top of its heap.
Which freed blocks then stay resident depends on the order of earlier
frees and on where earlier blocks lie: after a sweep to m=n=65536 the
free heap left resident moved by 3 to 7 MB with as little as the length
of the working directory's path.  :func:`fix` sets both thresholds once
and for all, so that a block of :data:`MMAP_THRESHOLD` or more (an
instance file read whole, say) gets pages of its own, handed back when it
is freed, and smaller ones share the heap; :func:`trim` hands the free
heap back once a command has left at least :data:`TRIM_FREE` bytes of it.
Under any other C library both do nothing.
"""

from __future__ import annotations

from functools import cache

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters (malloc.h)
# of 4, 8 and 32 MB, the threshold at which the peak of a process that ran
# the sweep above moved least with its path and environment (by 1.1 MB)
MMAP_THRESHOLD = 8 * 2**20
# a trimmed page costs a page fault when it is used again, about 0.6 ms a
# MB on a 2-vCPU virtual machine: a command that leaves less free keeps it
TRIM_FREE = 4 * 2**20


@cache
def _glibc():
    """The process's C library when it is glibc 2.33 or later (it has
    ``mallinfo2``), otherwise ``None``."""
    try:
        import ctypes

        class MallInfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc = ctypes.CDLL(None)
        libc.mallinfo2.restype = MallInfo2
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    return libc if hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim") else None


def fix() -> None:
    """Fix glibc's mmap threshold at :data:`MMAP_THRESHOLD` and its trim
    threshold at twice that, the ratio its own rule keeps."""
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


def trim() -> None:
    """Hand glibc's free heap back to the system when it holds at least
    :data:`TRIM_FREE` bytes."""
    libc = _glibc()
    if libc is not None and libc.mallinfo2().fordblks >= TRIM_FREE:
        libc.malloc_trim(0)
