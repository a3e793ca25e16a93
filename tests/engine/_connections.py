"""Counting the sqlite connections a process holds on a store file."""

import os

import pytest

_FD_DIR = "/proc/self/fd"

#: Marks tests that read this process's open files from ``/proc``.
needs_proc_fds = pytest.mark.skipif(
    not os.path.isdir(_FD_DIR),
    reason="needs /proc/self/fd to list open files")


def store_connections(path: str) -> int:
    """Open sqlite connections of this process on the store at ``path``.

    Every connection holds the main store file open exactly once (the
    ``-wal``/``-shm`` companions are separate files), so the count of
    descriptors pointing at it is the connection count.
    """
    target = os.path.realpath(path)
    count = 0
    for fd in os.listdir(_FD_DIR):
        try:
            if os.readlink(os.path.join(_FD_DIR, fd)) == target:
                count += 1
        except OSError:  # closed between listdir and readlink
            pass
    return count
