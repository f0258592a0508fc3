"""Helpers for the tests of the fork map and of the calls that use it."""
import os

import pytest

from preydelay import _forkmap


def serially(monkeypatch, run):
    """``run()`` with one usable CPU, so that nothing forks."""
    with monkeypatch.context() as m:
        m.setattr(_forkmap, "_usable_cpus", lambda: 1)
        return run()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
