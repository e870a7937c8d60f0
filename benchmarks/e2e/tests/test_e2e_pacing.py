"""Open-loop lateness accounting and the completion ledger."""

import threading

import pytest

from pacing import Ledger, OpenLoop


class FakeTime:
    """A clock that only moves when slept on or explicitly advanced."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_releases_each_operation_at_its_due_time():
    fake = FakeTime()
    loop = OpenLoop(rate=10.0, count=4, clock=fake.clock, sleep=fake.sleep)
    dues = [due for _index, due in loop]
    assert dues == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert loop.late == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-9)
    assert fake.slept == pytest.approx([0.1, 0.1, 0.1])


def test_open_loop_schedule_does_not_slip_after_a_stall():
    fake = FakeTime()
    loop = OpenLoop(rate=10.0, count=5, clock=fake.clock, sleep=fake.sleep)
    dues = []
    for index, due in loop:
        dues.append(due)
        if index == 1:
            fake.now += 0.25  # the cast itself stalled for 250 ms
    # Due times stay on the original grid: later operations are released
    # late (and timed from their due time), then the schedule catches up.
    assert dues == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])
    assert loop.late == pytest.approx([0.0, 0.0, 0.15, 0.05, 0.0], abs=1e-9)


def test_open_loop_counts_oversleep_as_generator_lateness():
    fake = FakeTime()

    def coarse_sleep(seconds):
        fake.now += seconds + 0.002  # the OS wakes us 2 ms late

    loop = OpenLoop(rate=100.0, count=3, clock=fake.clock, sleep=coarse_sleep)
    list(loop)
    assert loop.late[0] == 0.0
    assert loop.late[1:] == pytest.approx([0.002, 0.002])


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        OpenLoop(rate=0.0, count=1)


def test_ledger_completes_an_operation_on_its_last_listener():
    ledger = Ledger(listeners_per_op=2)
    index = ledger.issue(1.0)
    ledger.arrived(index, 1.5, True)
    assert ledger.incomplete() == 1 and ledger.latencies() == []
    ledger.arrived(index, 1.7, True)
    assert ledger.incomplete() == 0
    assert ledger.latencies() == pytest.approx([0.7])
    assert ledger.drain(0.01)


def test_ledger_reports_duplicates_conflicts_and_missing_operations():
    ledger = Ledger(listeners_per_op=1)
    first, second = ledger.issue(0.0), ledger.issue(0.0)
    ledger.arrived(first, 0.1, True)
    ledger.arrived(first, 0.2, False)  # delivered twice, second copy a conflict
    assert ledger.miscounted() == 1
    assert ledger.rejected == 1
    assert ledger.incomplete() == 1  # `second` never arrived
    assert not ledger.drain(0.01)
    assert ledger.latencies() == pytest.approx([0.1])
    assert second == 1


def test_ledger_window_blocks_the_generator_until_a_completion():
    ledger = Ledger(listeners_per_op=1, window=1)
    assert ledger.acquire_slot(0.01)
    index = ledger.issue(0.0)
    assert not ledger.acquire_slot(0.01)  # one in flight: the window is full
    threading.Timer(0.02, ledger.arrived, args=(index, 0.5, True)).start()
    assert ledger.acquire_slot(2.0)  # woken by the completion, not by polling
    assert ledger.drain(1.0)
