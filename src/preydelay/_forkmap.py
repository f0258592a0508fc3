"""An ordered ``map`` whose items are shared with ``os.fork()`` children.

:func:`fork_map` deals the items round-robin to one worker per usable CPU.
The calling process is worker 0 and computes its own items; every other
worker is a child that computes its items in turn and sends each result
back through a pipe, length-prefixed and pickled, together with the
warnings it caught.  The caller receives the results in item order, as
``map`` gives them, and each child's warnings are warned again in that
order.  If a child dies, the caller's process computes the items that child
did not deliver, so the caller sees exactly what a serial map returns or
raises.

Its one caller, :func:`preydelay.engine.export_csv`, imports it only when
it forks, so that ``import preydelay`` does not pay for it.
"""
from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from typing import Callable, Iterator, Sequence

_LENGTH = struct.Struct("<Q")


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def fork_map(fn: Callable, items: Sequence) -> Iterator:
    """Yield ``fn(item)`` for each of ``items`` in order.

    Runs serially, as ``map`` does, when one CPU is usable (``taskset -c 0``
    forces this), when ``os.fork`` is missing, or when other Python threads
    are alive.  Each child leaves through ``os._exit``, so it never flushes
    a buffer it shares with the caller (an open file, stdout).  When the map
    ends, by its last item, an exception or ``close()``, every child is
    killed and reaped; a caller that may stop early closes it.
    """
    workers = min(_usable_cpus(), len(items))
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        yield from map(fn, items)
        return
    children = [None] * workers
    try:
        for w in range(1, workers):
            children[w] = _start(fn, items[w::workers])
        for i, item in enumerate(items):
            child = children[i % workers]
            if child is not None:
                got = _receive(child[1])
                if got is not None:
                    result, caught = got
                    for warning in caught:
                        _reemit(*warning)
                    yield result
                    continue
                # the child died: its remaining items run here
                _stop(child)
                children[i % workers] = None
            yield fn(item)
    finally:
        for child in children:
            if child is not None:
                _stop(child)


def _start(fn: Callable, share: Sequence):
    """Fork a child that computes ``fn`` over ``share``: (pid, pipe) or None."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        # from Python 3.12 this warns (DeprecationWarning) whenever the
        # process has another OS thread, as NumPy's BLAS pool is; the
        # mapped functions call no BLAS routine
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            for item in share:
                with warnings.catch_warnings(record=True) as caught:
                    result = fn(item)
                payload = pickle.dumps(
                    (result, [(w.message, w.category, w.filename, w.lineno)
                              for w in caught]), pickle.HIGHEST_PROTOCOL)
                pipe.write(_LENGTH.pack(len(payload)))
                pipe.write(payload)
                pipe.flush()
        status = 0
    finally:
        # the child never returns into the caller's stack
        os._exit(status)


def _receive(pipe):
    """The next (result, warnings) from a child's pipe, or None if it died."""
    head = pipe.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        return None
    size, = _LENGTH.unpack(head)
    payload = pipe.read(size)
    return pickle.loads(payload) if len(payload) == size else None


def _stop(child) -> None:
    """Kill a child (finished or not), close its pipe and reap it."""
    pid, pipe = child
    os.kill(pid, signal.SIGKILL)
    pipe.close()
    os.waitpid(pid, 0)


def _reemit(message, category, filename: str, lineno: int) -> None:
    """Warn again as ``warnings.warn`` did in the child: under the module
    name that filters match and with the registry that shows a repeat once."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        warnings.warn_explicit(
            message, category, filename, lineno, module=module.__name__,
            registry=vars(module).setdefault("__warningregistry__", {}))
