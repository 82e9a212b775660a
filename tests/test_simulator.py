"""Unit tests for the discrete-event simulator."""

import gc
import warnings

import pytest

from repro.net.simulator import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, fired.append, label)
    sim.run_until_idle()
    assert fired == list("abcde")


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(100, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [100]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until_idle()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run_until_idle()
    assert fired == []


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run_until_idle()
    assert fired == ["early", "late"]


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(5, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.schedule(10, outer)
    sim.run_until_idle()
    assert fired == [("outer", 10), ("inner", 15)]


def test_determinism_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []
        for _ in range(50):
            sim.schedule(sim.rng.random() * 10, values.append, sim.rng.random())
        sim.run_until_idle()
        return values

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_counters():
    sim = Simulator()
    sim.count("drops")
    sim.count("drops", 2)
    assert sim.metrics.value("drops") == 3


def test_run_until_idle_guards_against_storms():
    sim = Simulator()

    def storm():
        sim.schedule(1, storm)

    sim.schedule(1, storm)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=1000)


def test_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=4)
    assert len(fired) == 4


# -- the on_event hook never changes what the drain does -----------------------
#
# Each driver schedules only ``note`` callbacks, so the log of
# ``(label, time)`` pairs is the exact list of executed events.


def _drive_until(sim, note):
    sim.schedule(10, note, "early")
    sim.schedule(100, note, "late")
    sim.run(until=50)


def _drive_max_events_warn(sim, note):
    for i in range(10):
        sim.schedule(i, note, i)
    sim.run(max_events=4)


def _drive_run_until_idle_raise(sim, note):
    def storm():
        note("storm")
        sim.schedule(1, storm)

    sim.schedule(1, storm)
    sim.run_until_idle(max_events=25)


def _drive_step(sim, note):
    sim.schedule(5, note, "a")
    sim.schedule(7, note, "b")
    return [sim.step(), sim.step(), sim.step()]


def _drive_cancelled(sim, note):
    victim = sim.schedule(10, note, "cancelled")

    def cancel():
        note("cancel")
        victim.cancel()

    sim.schedule(5, cancel)
    sim.schedule(20, note, "after")
    sim.run_until_idle()


@pytest.mark.parametrize("drive", [
    _drive_until, _drive_max_events_warn, _drive_run_until_idle_raise,
    _drive_step, _drive_cancelled,
], ids=lambda fn: fn.__name__[len("_drive_"):])
def test_on_event_hook_is_passive(drive):
    """Every drain mode executes the same events in the same order, ends
    at the same time and warns/raises the same with a hook set as
    without; the hook is called exactly once per executed event, with
    that event's time, and never for a cancelled one."""
    def run(hook):
        sim = Simulator()
        sim.on_event = hook
        log = []
        result = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = drive(sim,
                               lambda label: log.append((label, sim.now)))
            except RuntimeError as exc:
                error = str(exc)
        warned = [str(w.message) for w in caught]
        return (log, result, error, warned, sim.now, sim.events_executed,
                sim.pending_events, sim.metrics.snapshot()["counters"])

    calls = []
    plain, hooked = run(None), run(calls.append)
    assert plain == hooked
    log = plain[0]
    assert log and calls == [when for _label, when in log]
    assert "cancelled" not in [label for label, _when in log]
    # The cases do what their names say.
    _log, result, error, warned = plain[:4]
    assert (error is not None) == (drive is _drive_run_until_idle_raise)
    assert (len(warned) == 1) == (drive is _drive_max_events_warn)
    assert (result == [True, True, False]) == (drive is _drive_step)


# -- the drain pauses the cyclic collector and puts it back as found -----------
#
# tests/test_gc_contract.py pins why that is safe (events make no cyclic
# garbage); these pin that no way out of the drain leaks the pause.


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Enter the test with the collector in the given state; restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


def test_collector_is_paused_inside_handlers_and_restored(collector):
    sim = Simulator()
    seen = []

    def note():
        seen.append(gc.isenabled())

    for t in (1, 2, 3, 60, 70):
        sim.schedule(t, note)
    assert sim.step() and gc.isenabled() is collector
    sim.run(until=50)
    assert gc.isenabled() is collector
    sim.run_until_idle()
    assert gc.isenabled() is collector
    assert not sim.step() and gc.isenabled() is collector  # an empty drain
    assert seen == [False] * 5


def test_collector_restored_when_a_handler_raises(collector):
    sim = Simulator()
    sim.schedule(1, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run_until_idle()
    assert gc.isenabled() is collector


def test_collector_restored_when_max_events_raises_or_warns(collector):
    sim = Simulator()

    def storm():
        sim.schedule(1, storm)

    sim.schedule(1, storm)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=10)
    assert gc.isenabled() is collector
    with pytest.warns(RuntimeWarning):
        sim.run(max_events=10)
    assert gc.isenabled() is collector


def test_reentrant_step_does_not_resume_the_collector_mid_drain(collector):
    """A handler that steps the simulator itself ends an inner drain; the
    inner drain found the collector off, so it must leave it off for the
    rest of the outer one."""
    sim = Simulator()
    seen = []

    def reenter():
        assert sim.step()  # runs "inner" from inside this handler
        seen.append(("after-step", gc.isenabled()))

    sim.schedule(1, reenter)
    sim.schedule(2, lambda: seen.append(("inner", gc.isenabled())))
    sim.schedule(3, lambda: seen.append(("later", gc.isenabled())))
    sim.run_until_idle()
    assert seen == [("inner", False), ("after-step", False),
                    ("later", False)]
    assert gc.isenabled() is collector
