"""A profile hook for one block of a test, handed back to any outer one."""

from __future__ import annotations

import contextlib
import sys


@contextlib.contextmanager
def profile_hook(record):
    """Run the block with `record` as the Python profile hook.

    `sys.getprofile()` returns what the outer hook was installed from: a
    callable for `sys.setprofile`, or a C profiler such as
    `cProfile.Profile`, which is not callable and installs itself through
    `enable()`.  A C profiler is disabled before the block, which flushes
    its open calls, and enabled again after it; a callable is restored.
    """
    previous = sys.getprofile()
    native = previous is not None and not callable(previous)
    if native:
        previous.disable()
    sys.setprofile(record)
    try:
        yield
    finally:
        sys.setprofile(None if native else previous)
        if native:
            previous.enable()
