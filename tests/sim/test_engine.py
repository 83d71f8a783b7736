"""Event engine and timer semantics."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.at(30, order.append, "c")
        engine.at(10, order.append, "a")
        engine.at(20, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, engine):
        order = []
        for tag in "abc":
            engine.at(5, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, engine):
        seen = []
        engine.at(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_after_is_relative(self, engine):
        seen = []
        engine.at(10, lambda: engine.after(5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15]

    def test_cannot_schedule_in_past(self, engine):
        engine.at(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(5, lambda: None)

    def test_run_until_stops_clock_at_bound(self, engine):
        engine.at(100, lambda: None)
        engine.run(until_ps=50)
        assert engine.now == 50
        assert engine.pending() == 1

    def test_run_until_never_rewinds_clock(self, engine):
        """Regression: a second run() with an *earlier* horizon used to
        set ``now = until_ps`` and move time backwards, after which a
        callback could legally schedule into the already-executed
        past."""
        engine.at(100, lambda: None)
        engine.run(until_ps=50)
        engine.run(until_ps=20)  # horizon behind the clock: a no-op
        assert engine.now == 50
        # the past is still the past: scheduling before `now` raises
        with pytest.raises(ValueError):
            engine.at(30, lambda: None)
        engine.run(until_ps=60)
        assert engine.now == 60
        assert engine.pending() == 1

    def test_stop_breaks_loop(self, engine):
        fired = []

        def first():
            fired.append(1)
            engine.stop()

        engine.at(1, first)
        engine.at(2, fired.append, 2)
        engine.run()
        assert fired == [1]
        assert engine.pending() == 1

    def test_max_events_bound(self, engine):
        for i in range(10):
            engine.at(i + 1, lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending() == 7

    def test_events_executed_accumulates(self, engine):
        engine.at(1, lambda: None)
        engine.at(2, lambda: None)
        engine.run()
        assert engine.events_executed == 2

    def test_nested_scheduling_during_run(self, engine):
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                engine.after(1, chain, depth + 1)

        engine.at(0, chain, 0)
        engine.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    @given(delays=st.lists(st.integers(0, 10**9), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_execution(self, delays):
        eng = Engine()
        fired = []
        for d in delays:
            eng.at(d, lambda d=d: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestTimer:
    def test_fires_once(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        engine.run()
        assert hits == [10]
        assert not t.armed

    def test_cancel_suppresses(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(1))
        t.arm_at(10)
        t.cancel()
        engine.run()
        assert hits == []

    def test_rearm_replaces_deadline(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.arm_at(20)
        engine.run()
        assert hits == [20]

    def test_rearm_from_callback(self, engine):
        hits = []

        def fire():
            hits.append(engine.now)
            if len(hits) < 3:
                t.arm_after(5)

        t = Timer(engine, fire)
        t.arm_at(5)
        engine.run()
        assert hits == [5, 10, 15]

    def test_deadline_visible(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(33)
        assert t.deadline == 33
        assert t.armed

    def test_deferred_rearm_fires_once_at_final_deadline(self, engine):
        """Re-arming later keeps the queued shell; it must defer silently
        at the old deadline and fire exactly once at the new one."""
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.arm_at(30)  # shell at 10 stays queued, defers itself
        engine.at(10, lambda: hits.append(("mid", engine.now, t.armed)))
        engine.run()
        assert hits == [("mid", 10, True), 30]

    def test_cancel_then_rearm_revives_shell(self, engine):
        hits = []
        t = Timer(engine, lambda: hits.append(engine.now))
        t.arm_at(10)
        t.cancel()
        t.arm_at(10)  # revives the cancelled shell in place
        engine.run()
        assert hits == [10]


class TestWheelGeometry:
    """The slotted wheel's horizon, overflow heap, and window jumps."""

    def test_far_future_event_beyond_horizon(self, engine):
        # the wheel window is ~134 us; 1 s lands in the overflow heap
        seen = []
        engine.at(10**12, lambda: seen.append(engine.now))
        assert engine.pending() == 1
        engine.run()
        assert seen == [10**12]

    def test_order_preserved_across_horizon(self, engine):
        order = []
        engine.at(10**12, order.append, "far")
        engine.at(5, order.append, "near")
        engine.at(10**12, order.append, "far2")
        engine.run()
        assert order == ["near", "far", "far2"]

    def test_window_jumps_over_idle_gaps(self, engine):
        # sparse events many windows apart: each drains after a jump
        times = [0, 10**9, 7 * 10**9, 10**12]
        seen = []
        for t in times:
            engine.at(t, lambda: seen.append(engine.now))
        engine.run()
        assert seen == times

    def test_until_across_window_boundary(self, engine):
        engine.at(10**9, lambda: None)
        engine.run(until_ps=5 * 10**8)
        assert engine.now == 5 * 10**8
        assert engine.pending() == 1
        engine.run()
        assert engine.now == 10**9
        assert engine.pending() == 0

    def test_callback_schedules_far_then_near(self, engine):
        seen = []

        def first():
            engine.at(engine.now + 10**10, lambda: seen.append("far"))
            engine.at(engine.now + 1, lambda: seen.append("near"))

        engine.at(0, first)
        engine.run()
        assert seen == ["near", "far"]


class TestPendingAccounting:
    """Regression: ``pending()`` counted cancelled Timer shells, so
    queue-depth probes over-read under RTO-heavy runs.  ``pending()``
    stays the physical queue depth; ``pending_live()`` excludes stale
    shells."""

    def test_cancelled_shell_counted_physical_not_live(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(10)
        t.cancel()
        assert engine.pending() == 1      # the shell is still queued
        assert engine.pending_live() == 0  # but represents nothing
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0

    def test_rearm_later_keeps_single_shell(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(10)
        for deadline in (20, 30, 40, 50):
            t.arm_at(deadline)  # deferred, not re-pushed
        assert engine.pending() == 1
        assert engine.pending_live() == 1
        engine.run()
        assert engine.pending() == 0

    def test_rearm_earlier_supersedes_shell(self, engine):
        t = Timer(engine, lambda: None)
        t.arm_at(100)
        t.arm_at(50)  # earlier: must push a fresh shell
        assert engine.pending() == 2
        assert engine.pending_live() == 1
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0

    def test_cancel_rearm_storm_drains_clean(self, engine):
        timers = [Timer(engine, lambda: None) for _ in range(32)]
        for i, t in enumerate(timers):
            t.arm_at(100 + i)
            if i % 3 == 0:
                t.cancel()
            elif i % 3 == 1:
                t.arm_at(10 + i)  # earlier: supersede
            else:
                t.arm_at(1000 + i)  # later: defer
        live = sum(1 for t in timers if t.armed)
        assert engine.pending_live() == live
        assert engine.pending() >= live
        engine.run()
        assert engine.pending() == 0
        assert engine.pending_live() == 0


class _HeapEngine:
    """Reference executor: one ``heapq`` ordered by ``(time, seq)``.

    It offers the scheduling surface :class:`Timer` uses (``now``,
    ``_seq``, ``_stale``, ``_push``), so the same Timer logic runs on
    both executors and any divergence is the wheel's.
    """

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._stale = 0
        self._heap = []

    def at(self, time_ps, fn, *args):
        assert time_ps >= self.now
        self._seq += 1
        self._push(time_ps, self._seq, fn, args)

    def _push(self, time_ps, seq, fn, args):
        heapq.heappush(self._heap, (time_ps, seq, fn, args))

    def run(self, until_ps=None, max_events=None):
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            if until_ps is not None and self._heap[0][0] > until_ps:
                self.now = max(self.now, until_ps)
                break
            time_ps, _, fn, args = heapq.heappop(self._heap)
            self.now = time_ps
            fn(*args)
            executed += 1
        return executed

    def pending(self):
        return len(self._heap)

    def pending_live(self):
        return len(self._heap) - self._stale


#: wheel horizon: 4096 slots of 2**15 ps
_HORIZON = 4096 << 15
_RTO = 70_000_000

_delays = st.one_of(
    st.just(0),                                  # same instant
    st.integers(0, 4 << 15),                     # same / adjacent slots
    st.integers(0, _HORIZON - 1),                # near (under ~134 us)
    st.integers(_HORIZON, 40 * _HORIZON),        # far (overflow heap)
)
_child = st.one_of(
    st.tuples(st.just("at"), _delays),
    st.tuples(st.just("arm"), st.integers(0, 3), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
)
_op = st.one_of(
    st.tuples(st.just("at"), _delays,
              st.lists(_child, max_size=3).map(tuple)),
    st.tuples(st.just("arm"), st.integers(0, 3), _delays),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("run"),
              st.one_of(st.none(), _delays),
              st.one_of(st.none(), st.integers(0, 12))),
    # an until_ps stop followed by a schedule at `now`: the event lands
    # behind a cursor that already sits at the next occupied slot
    st.tuples(st.just("stop_then_now"), _delays),
)


def _play(eng, program):
    """Run ``program`` on ``eng``; return everything observable."""
    log = []
    timers = []

    def act(child, tag):
        if child[0] == "at":
            eng.at(eng.now + child[1], leaf, tag)
        elif child[0] == "arm":
            timers[child[1]].arm_at(eng.now + child[2])
        else:
            timers[child[1]].cancel()

    def leaf(tag):
        log.append((tag, eng.now))

    def parent(tag, children):
        log.append((tag, eng.now))
        for i, child in enumerate(children):
            act(child, f"{tag}.{i}")

    def make_fire(k):
        def fire():
            log.append((f"timer{k}", eng.now))
            fires[k] += 1
            if fires[k] < 3:  # RTO-style re-arm, a few rounds
                timers[k].arm_after(_RTO)
        return fire

    fires = [0] * 4
    timers.extend(Timer(eng, make_fire(k)) for k in range(4))
    for n, op in enumerate(program):
        kind = op[0]
        if kind == "at":
            eng.at(eng.now + op[1], parent, f"e{n}", op[2])
        elif kind in ("arm", "cancel"):
            act(op, f"e{n}")
        elif kind == "run":
            until = None if op[1] is None else eng.now + op[1]
            done = eng.run(until_ps=until, max_events=op[2])
            log.append(("run", done, eng.now, eng.pending(),
                        eng.pending_live()))
        else:
            eng.run(until_ps=eng.now + op[1])
            eng.at(eng.now, leaf, f"e{n}@now")
            log.append(("stop", eng.now, eng.pending(),
                        eng.pending_live()))
    done = eng.run()
    log.append(("drain", done, eng.now, eng.pending(), eng.pending_live()))
    return log


class TestOrderMatchesHeapReference:
    """The wheel — occupied-slot jumps, overflow refills, the clamp
    into the cursor's bucket — executes exactly the ``(time, seq)``
    order of a plain binary heap."""

    @given(program=st.lists(_op, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_wheel_matches_heap(self, program):
        assert _play(Engine(), program) == _play(_HeapEngine(), program)

    def test_clamp_after_stop_runs_first(self):
        # the stop leaves the cursor at the far event's slot, ahead of
        # `now`; an event scheduled at `now` must still run first
        program = [("at", 3 * _HORIZON, ()), ("stop_then_now", _HORIZON)]
        log = _play(Engine(), program)
        assert log == _play(_HeapEngine(), program)
        assert [e[0] for e in log if e[0].startswith("e")] == ["e1@now",
                                                               "e0"]
