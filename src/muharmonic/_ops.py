"""The public operations the suite's coverage check counts, and their calls.

``@operation`` marks a function at its definition, so every binding of the
name, ``from .x import y`` ones included, sees the same marked function.
While a ``collecting()`` block is active, a call to a marked function adds
its name to the block's set; outside one, the marker only forwards the call.
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar

#: names of every function marked so far
MARKED: set[str] = set()

_called: ContextVar[set[str] | None] = ContextVar("muharmonic_called", default=None)


def operation(fn):
    name = fn.__name__
    MARKED.add(name)

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        called = _called.get()
        if called is not None:
            called.add(name)
        return fn(*args, **kwargs)

    return marked


@contextlib.contextmanager
def collecting():
    """Yield the set of marked operations called inside the block."""
    called: set[str] = set()
    token = _called.set(called)
    try:
        yield called
    finally:
        _called.reset(token)
