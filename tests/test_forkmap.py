"""The fork map, and export_csv through it: the serial results, bytes and
exceptions, with no child left behind."""
import os
import signal
import threading
import time
import warnings

import pytest

from preydelay import engine, export_csv
from preydelay._forkmap import fork_map

from forking import assert_no_child_left, serially


def _die_in_a_child(parent: int) -> None:
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def test_results_arrive_in_item_order(fork_count):
    assert list(fork_map(lambda i: i * i, range(7))) == [i * i for i in range(7)]
    assert fork_count[0] == 1
    assert_no_child_left()


def test_items_of_a_dead_child_run_in_the_parent(fork_count):
    parent = os.getpid()

    def fn(i):
        if i == 3:
            _die_in_a_child(parent)
        return i

    assert list(fork_map(fn, range(8))) == list(range(8))
    assert fork_count[0] == 1
    assert_no_child_left()


def test_a_child_exception_is_the_serial_exception(fork_count, monkeypatch):
    def fn(i):
        if i >= 3:
            raise ValueError(f"item {i}")
        return i

    # item 3 is the child's first failure, item 4 the parent's
    for run in (lambda: list(fork_map(fn, range(8))),
                lambda: serially(monkeypatch, lambda: list(fork_map(fn, range(8))))):
        with pytest.raises(ValueError, match="item 3"):
            run()
    assert fork_count[0] == 1
    assert_no_child_left()


def test_warnings_arrive_in_item_order(fork_count):
    def fn(i):
        warnings.warn(f"item {i}", UserWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert list(fork_map(fn, range(6))) == list(range(6))
    assert fork_count[0] == 1
    # (Python 3.12 adds its own DeprecationWarning for the fork)
    assert [str(w.message) for w in caught if w.category is UserWarning] == [
        f"item {i}" for i in range(6)]
    assert_no_child_left()


def test_a_map_left_early_stops_its_child(fork_count):
    results = fork_map(lambda i: i, range(6))
    assert next(results) == 0
    results.close()
    assert fork_count[0] == 1
    assert_no_child_left()


def test_a_child_warning_repeat_shows_once(fork_count):
    # the child's items are the odd ones; only they warn, from one line
    def fn(i):
        if i % 2:
            warnings.warn("odd item", UserWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            assert list(fork_map(fn, range(4))) == list(range(4))
    assert fork_count[0] == 2
    # (Python 3.12 adds its own DeprecationWarning for the fork)
    shown = [w for w in caught if w.category is UserWarning]
    assert len(shown) == 1
    assert shown[0].filename == __file__
    assert_no_child_left()


def test_a_failure_in_the_callers_item_stops_the_child(fork_count):
    # item 0 is the caller's; the child's items would outlast the test
    def fn(i):
        if i == 0:
            raise ValueError("the caller's item")
        time.sleep(30.0)
        return i

    start = time.perf_counter()
    with pytest.raises(ValueError, match="the caller's item"):
        list(fork_map(fn, range(4)))
    assert time.perf_counter() - start < 10.0
    assert fork_count[0] == 1
    assert_no_child_left()


def test_a_live_thread_keeps_the_map_serial(fork_count):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        assert list(fork_map(lambda i: i * i, range(7))) == [
            i * i for i in range(7)]
    finally:
        release.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert fork_count[0] == 0


# --------------------------------------------------------------------------
# export_csv

# three blocks with t_end off the stride grid; four small blocks
CASES = [(0.0291, None), (60.0 / 47.5, 16)]


@pytest.mark.parametrize("stride, block", CASES)
def test_forked_export_writes_the_serial_bytes(fork_count, monkeypatch,
                                               bd_model, bd_traj, stride,
                                               block, tmp_path):
    if block is not None:
        monkeypatch.setattr(engine, "_CSV_BLOCK", block)
    forked, serial = tmp_path / "forked.csv", tmp_path / "serial.csv"
    export_csv(bd_model, bd_traj, forked, stride)
    assert fork_count[0] == 1
    serially(monkeypatch, lambda: export_csv(bd_model, bd_traj, serial, stride))
    assert fork_count[0] == 1
    assert forked.read_bytes() == serial.read_bytes()
    assert_no_child_left()


def test_export_with_a_dead_child_writes_the_serial_bytes(fork_count,
                                                         monkeypatch,
                                                         bd_model, bd_traj,
                                                         tmp_path):
    serial = tmp_path / "serial.csv"
    serially(monkeypatch, lambda: export_csv(bd_model, bd_traj, serial, 0.0291))
    parent = os.getpid()
    correction_factor = engine.correction_factor

    def dying_correction_factor(*args):
        _die_in_a_child(parent)
        return correction_factor(*args)

    monkeypatch.setattr(engine, "correction_factor", dying_correction_factor)
    forked = tmp_path / "forked.csv"
    export_csv(bd_model, bd_traj, forked, 0.0291)
    assert fork_count[0] == 1
    assert forked.read_bytes() == serial.read_bytes()
    assert_no_child_left()


def test_short_export_does_not_fork(fork_count, bd_model, bd_traj, tmp_path):
    rows = engine._CSV_BLOCK * (engine._CSV_FORK_MIN_BLOCKS - 1)
    export_csv(bd_model, bd_traj, tmp_path / "t.csv", 60.0 / (rows - 1))
    assert len((tmp_path / "t.csv").read_text().splitlines()) == rows + 1
    assert fork_count[0] == 0
