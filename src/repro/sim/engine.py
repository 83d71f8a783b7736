"""Discrete-event simulation engine.

A slotted **time-wheel** (calendar queue) scheduler with a heap fallback
for far-future events.  Near-future events — the overwhelming majority in
a packet simulation, where inter-event gaps are serialization times and
hop latencies — land in per-slot buckets indexed by ``time_ps >> 15``
(32.768 ns slots); each bucket is a tiny heap ordered by ``(time_ps,
seq)``.  Events beyond the wheel's ~134 us horizon (RTO backstops,
scheduled failures, run horizons) wait in an overflow heap and are bulk
migrated into the wheel as it turns.  Pop cost is O(1 + bucket depth)
instead of O(log n) on one big heap, which is where the htsim lineage
gets its event-loop throughput.

The wheel never steps through empty slots.  A small min-heap indexes the
occupied slots (a slot goes on it when its bucket turns non-empty), so
when the cursor's bucket runs dry ``run()`` jumps straight to the next
occupied slot and refills the moved window from the overflow heap.
Sparse stretches (an RTO every 70 us on a dead path, ~2,136 empty slots
apart) then cost one heap pop per event instead of one loop iteration
per 32.768 ns of simulated time.

This replaces the htsim C++ event loop the paper builds on.

Invariants (everything downstream — the sweep harness's content-keyed
artifact cache, the serial-equals-parallel guarantee, the paper-shape
checks — rests on these):

- **Integer time.**  Timestamps are integer picoseconds; there is no
  floating-point drift and no wall-clock input anywhere in the loop.
- **Total event order.**  Events are ordered by ``(time_ps, seq)``;
  ``seq`` never repeats, so the wheel's drain order is a total order and
  two runs that schedule the same events observe the same execution
  sequence.  (Slots behind the cursor are empty, each physical
  bucket holds exactly one logical slot's events, every non-empty slot
  ahead of the cursor is in the occupied index so a jump never skips
  one, and in-bucket heaps restore ``(time_ps, seq)`` order for the
  rare event clamped into the cursor's bucket.)
- **Determinism.**  Given the same initial schedule and the same
  seeded RNGs in the callbacks, every run executes the identical event
  sequence — which is why a ``SweepTask``'s results can be cached by a
  content hash of its parameters alone.
- **Monotonic ``now``.**  Callbacks only ever schedule at
  ``time_ps >= now``; scheduling into the past raises rather than
  silently reordering history.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Wheel geometry: 4096 slots of 2**15 ps (32.768 ns) each — a ~134 us
#: horizon.  Slot width sits just under one MTU serialization time at
#: 400G, so busy-period events cluster a few per bucket.  Sparse events
#: sit thousands of slots apart (a 70 us RTO gap is ~2,136 slots); the
#: occupied-slot index lets ``run()`` jump those gaps in one step.
_SLOT_BITS = 15
_NSLOTS = 4096
_MASK = _NSLOTS - 1


class Engine:
    """Event loop with integer-picosecond timestamps."""

    __slots__ = (
        "now", "_seq", "_stopped", "events_executed",
        "_wheel", "_overflow", "_cursor", "_window_end",
        "_wheel_count", "_stale", "_occupied",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._stopped: bool = False
        self.events_executed: int = 0
        #: per-slot buckets; each bucket is a heap of (time, seq, fn, args)
        self._wheel: list = [[] for _ in range(_NSLOTS)]
        #: events at or beyond the wheel horizon, one big heap
        self._overflow: list = []
        #: absolute slot number currently being drained (monotonic)
        self._cursor: int = 0
        #: absolute time (exclusive) covered by the wheel window
        self._window_end: int = _NSLOTS << _SLOT_BITS
        self._wheel_count: int = 0
        #: cancelled/superseded Timer shells still queued (see Timer)
        self._stale: int = 0
        #: min-heap of absolute slots ahead of the cursor whose bucket
        #: turned non-empty; entries the cursor has reached are popped
        #: lazily once the cursor's bucket runs dry
        self._occupied: list = []

    def at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ps} < now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        # inlined _push: this is the hottest scheduling call in the sim
        if time_ps < self._window_end:
            slot = time_ps >> _SLOT_BITS
            if slot > self._cursor:
                bucket = self._wheel[slot & _MASK]
                if not bucket:
                    heapq.heappush(self._occupied, slot)
            else:
                bucket = self._wheel[self._cursor & _MASK]
            heapq.heappush(bucket, (time_ps, seq, fn, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (time_ps, seq, fn, args))

    def _push(self, time_ps: int, seq: int, fn, args) -> None:
        """Queue an event under an already-allocated sequence number.

        ``Timer`` allocates seq at arm time but queues lazily; keeping
        allocation and queueing separable means a deferred shell lands
        at exactly the ``(time, seq)`` slot an eager push would have
        used, so same-instant tie-breaks are identical either way.
        """
        if time_ps < self._window_end:
            slot = time_ps >> _SLOT_BITS
            if slot > self._cursor:
                bucket = self._wheel[slot & _MASK]
                if not bucket:
                    heapq.heappush(self._occupied, slot)
            else:
                # the cursor's own slot, or one it already passed (it
                # can sit ahead of `now` after an until_ps stop or a
                # window jump): drop into the cursor's bucket, whose
                # heap restores (time, seq) order ahead of that bucket's
                # later events.  run() drains that bucket before it
                # consults the index, so it needs no index entry
                bucket = self._wheel[self._cursor & _MASK]
            heapq.heappush(bucket, (time_ps, seq, fn, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (time_ps, seq, fn, args))

    def after(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay_ps`` picoseconds."""
        self.at(self.now + delay_ps, fn, *args)

    def stop(self) -> None:
        """Stop the loop after the currently executing event returns."""
        self._stopped = True

    def _refill(self) -> None:
        """Migrate overflow events that now fall inside the window."""
        overflow = self._overflow
        wheel = self._wheel
        occupied = self._occupied
        window_end = self._window_end
        cursor = self._cursor
        push, pop = heapq.heappush, heapq.heappop
        moved = 0
        while overflow and overflow[0][0] < window_end:
            ev = pop(overflow)
            slot = ev[0] >> _SLOT_BITS
            if slot < cursor:
                slot = cursor
            bucket = wheel[slot & _MASK]
            if not bucket and slot > cursor:
                push(occupied, slot)
            push(bucket, ev)
            moved += 1
        self._wheel_count += moved

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until_ps``, or ``stop()``.

        Returns the number of events executed by this call.
        """
        wheel = self._wheel
        overflow = self._overflow
        occupied = self._occupied
        pop = heapq.heappop
        push = heapq.heappush
        executed = 0
        # sentinels keep the per-event checks branch-cheap: nothing is
        # ever scheduled at or counted to 2**63
        until = (1 << 63) if until_ps is None else until_ps
        limit = (1 << 63) if max_events is None else max_events
        self._stopped = False
        while True:
            if not self._wheel_count:
                if not overflow:
                    break
                # wheel empty: jump the window to the overflow head
                slot = overflow[0][0] >> _SLOT_BITS
                if slot > self._cursor:
                    self._cursor = slot
                self._window_end = (self._cursor + _NSLOTS) << _SLOT_BITS
                self._refill()
                continue
            cursor = self._cursor
            bucket = wheel[cursor & _MASK]
            if not bucket:
                # jump to the next occupied slot.  Buckets ahead of the
                # cursor are never drained, so an index entry past the
                # cursor is always live, and one exists because the
                # wheel still holds an event.  Overflow events lie past
                # the old window, hence past the new cursor: the refill
                # puts them in their own slots, never the cursor's
                while occupied[0] <= cursor:
                    pop(occupied)
                cursor = self._cursor = occupied[0]
                window_end = self._window_end = (
                    (cursor + _NSLOTS) << _SLOT_BITS)
                if overflow and overflow[0][0] < window_end:
                    self._refill()
                bucket = wheel[cursor & _MASK]
            # drain this slot's bucket (callbacks may push into it);
            # _wheel_count is kept exact per event so pending() stays
            # accurate when a probe callback reads it mid-drain
            while bucket:
                if executed >= limit:
                    self.events_executed += executed
                    return executed
                item = pop(bucket)
                time_ps = item[0]
                if time_ps > until:
                    # advance to the horizon, but never rewind: a second
                    # run() with an earlier until_ps must not move time
                    # backwards under already-scheduled events
                    push(bucket, item)
                    if until > self.now:
                        self.now = until
                    self.events_executed += executed
                    return executed
                self._wheel_count -= 1
                self.now = time_ps
                item[2](*item[3])
                executed += 1
                if self._stopped:
                    self.events_executed += executed
                    return executed
        self.events_executed += executed
        return executed

    def pending(self) -> int:
        """Number of events still queued (including cancelled shells)."""
        return self._wheel_count + len(self._overflow)

    def pending_live(self) -> int:
        """Queued events excluding cancelled/superseded Timer shells.

        This is the depth harness probes should report: under RTO-heavy
        runs :meth:`pending` over-reads by the stale shells Timers leave
        behind until the wheel drains them.
        """
        return self._wheel_count + len(self._overflow) - self._stale


class Timer:
    """Re-armable one-shot timer that recycles its queued event.

    Cancelling a queued event is O(n); instead the timer keeps at most
    one *shell* event queued and defers at fire time: re-arming to a
    **later** deadline — the common case for RTO timers, whose deadline
    moves forward with every ACK — just records the new deadline and
    lets the already-queued shell re-queue itself when it fires early.
    Only re-arming *earlier* pushes a new shell (the old one becomes
    stale and is ignored when drained).  The engine's ``_stale`` count
    tracks exactly the queued shells that no longer represent a live
    arming, so ``Engine.pending_live()`` stays accurate.

    Determinism: every ``arm_at`` consumes one engine sequence number —
    whether or not it queues anything — and a deferred shell is queued
    under the seq its arming allocated.  The timer's firing event
    therefore occupies the exact ``(time, seq)`` slot an
    eager-push-per-rearm implementation would give it, so same-instant
    execution order (and with it every downstream RNG draw) is
    bit-identical to the pre-wheel engine.
    """

    __slots__ = ("_engine", "_fn", "_armed_at", "_armed_seq",
                 "_shell_at", "_shell_live", "_shell_id")

    def __init__(self, engine: Engine, fn: Callable[[], Any]) -> None:
        self._engine = engine
        self._fn = fn
        #: deadline the owner asked for (None = unarmed)
        self._armed_at: Optional[int] = None
        #: seq allocated for the current arming's firing event
        self._armed_seq: int = 0
        #: time of the queued shell event (None = no shell queued)
        self._shell_at: Optional[int] = None
        #: does the queued shell represent the current arming?
        self._shell_live: bool = False
        #: id of the newest shell; older shells are stale on arrival
        self._shell_id: int = 0

    @property
    def armed(self) -> bool:
        return self._armed_at is not None

    @property
    def deadline(self) -> Optional[int]:
        return self._armed_at

    def arm_at(self, time_ps: int) -> None:
        """(Re)arm to fire at absolute ``time_ps``; replaces prior arming."""
        engine = self._engine
        if time_ps < engine.now:
            raise ValueError(
                f"cannot schedule in the past: {time_ps} < now={engine.now}"
            )
        engine._seq = seq = engine._seq + 1
        self._armed_at = time_ps
        self._armed_seq = seq
        shell_at = self._shell_at
        if shell_at is not None:
            if shell_at <= time_ps:
                # reuse the queued shell: it fires no later than needed
                # and will defer itself to the recorded deadline
                if not self._shell_live:
                    engine._stale -= 1
                    self._shell_live = True
                return
            if self._shell_live:
                # the queued shell fires too late: supersede it
                engine._stale += 1
        self._shell_id += 1
        self._shell_at = time_ps
        self._shell_live = True
        engine._push(time_ps, seq, self._fire, (self._shell_id,))

    def arm_after(self, delay_ps: int) -> None:
        self.arm_at(self._engine.now + delay_ps)

    def cancel(self) -> None:
        self._armed_at = None
        if self._shell_at is not None and self._shell_live:
            self._engine._stale += 1
            self._shell_live = False

    def _fire(self, shell_id: int) -> None:
        if shell_id != self._shell_id:
            # a superseded shell draining out of the queue
            self._engine._stale -= 1
            return
        if not self._shell_live:
            # cancelled (and not re-armed) since scheduling
            self._engine._stale -= 1
            self._shell_at = None
            return
        self._shell_at = None
        self._shell_live = False
        deadline = self._armed_at
        if deadline is not None and deadline > self._engine.now:
            # armed later than this shell: defer by re-queueing under
            # the seq the arming reserved
            self._shell_id += 1
            self._shell_at = deadline
            self._shell_live = True
            self._engine._push(deadline, self._armed_seq, self._fire,
                               (self._shell_id,))
            return
        self._armed_at = None
        self._fn()
