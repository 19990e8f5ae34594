"""Batched columnar event engine: SoA event blocks + calendar-queue drains.

The heap engine (:class:`~repro.sim.engine.Environment`) processes one
event per ``heappop``.  For the fleet hot path -- millions of CPU
chunk-boundary fires whose timestamps are known the moment a batch is
granted a core -- that per-event dispatch is the dominant cost.  The
columnar engine keeps those pre-computed timestamps out of the heap
entirely: they live in struct-of-arrays *event blocks* (one contiguous
``(times, counter block)`` pair per coalesced CPU batch, numpy-backed
where available with an :mod:`array`-module fallback), and a calendar
queue drains each block in time-bucketed batches bounded by the next
ordinary heap event.

Ordering is byte-identical to the heap engine: every block entry carries
a ``(time, counter)`` key from the same counter sequence the heap uses
(:meth:`Environment.reserve_counters`), the calendar queue always drains
the globally smallest key first, and a drain stops exactly at the next
competing key -- so the interleaving of block entries with ordinary
events reproduces ``heapq`` order including ties.  ``events_processed``,
``now`` and ``queue_depth`` advance exactly as if every block entry had
been an individual heap entry (each live block accounts for one pending
heap slot, mirroring the heap engine's one-entry-per-batch invariant).

Engine selection is ``engine="columnar"`` (the default) ``| "heap"`` on
:class:`repro.api.FleetConfig`, which picks the environment class; the
``engine`` differential pair in ``repro selftest`` plus the exporter
goldens hold the two engines byte-identical on every measurement
surface.
"""

from __future__ import annotations

import gc
from heapq import heappop as _heappop
from typing import Any, Callable, Iterable, Sequence

from repro.sim.engine import Environment, Event, Process, SimulationError

try:  # numpy is the fast path; the array module keeps the engine importable
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into this toolchain
    _np = None

from array import array as _array

__all__ = ["EventBlock", "CallBlock", "CalendarQueue", "ColumnarEnvironment"]

_INF = float("inf")


def as_time_column(times: Iterable[float]):
    """A struct-of-arrays time column: numpy when available, array('d') else.

    Both back-ends support ``len``, scalar indexing and slicing -- the only
    operations the generic drain loop needs.  Vectorized consumers (the
    coalesced-batch recorder) require numpy and construct their columns
    directly.
    """
    if _np is not None:
        return _np.asarray(times, dtype=_np.float64)
    return _array("d", times)


class EventBlock:
    """A pre-sorted run of scheduled firings sharing one counter block.

    ``times`` must be nondecreasing; entry ``k`` has key
    ``(times[k], base + k)`` where ``base`` is a counter block reserved
    from the environment (so keys interleave with ordinary heap entries
    exactly as if each entry had been pushed individually).

    Subclasses override :meth:`drain` to fire entries in bulk; the base
    implementation fires :meth:`fire_one` per entry -- correct for any
    block, vectorization is an optimization.
    """

    __slots__ = ("times", "base", "index")

    def __init__(self, times, base: int):
        self.times = times
        self.base = base
        #: Cursor of the next unfired entry.
        self.index = 0

    def __len__(self) -> int:
        return len(self.times)

    @property
    def next_when(self) -> float:
        """Time of the next pending entry (+inf when exhausted)."""
        return self.times[self.index] if self.index < len(self.times) else _INF

    @property
    def next_count(self) -> int:
        return self.base + self.index

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.times)

    def fire_one(self) -> None:
        """Fire the entry at the cursor (advance the cursor first)."""
        raise NotImplementedError

    def drain(self, stop_when: float, stop_count: float) -> tuple[int, float, bool]:
        """Fire every pending entry with key < ``(stop_when, stop_count)``.

        Returns ``(fired, now, active)``: how many entries fired, the time
        of the last fired entry (the new clock), and whether the block
        still has pending entries.  The environment only calls this when
        the block holds the globally smallest key, so at least one entry
        fires.
        """
        times = self.times
        n = len(times)
        fired = 0
        now = self.next_when
        while self.index < n:
            when = times[self.index]
            if when > stop_when or (when == stop_when and self.base + self.index >= stop_count):
                break
            now = when
            fired += 1
            self.fire_one()
        return fired, float(now), self.index < n


class CallBlock(EventBlock):
    """An event block invoking one callable per entry (no arguments).

    The columnar counterpart of :meth:`Environment.schedule_calls`: the
    times go into one SoA column instead of ``len(times)`` heap entries.
    When built with an ``env`` (as :meth:`ColumnarEnvironment.schedule_block`
    does), each fire advances the environment clock first -- the heap
    engine sets ``now`` before invoking a popped callable, and callables
    are entitled to read it.
    """

    __slots__ = ("fn", "env")

    def __init__(
        self, times, base: int, fn: Callable[[], None], env=None
    ):
        super().__init__(times, base)
        self.fn = fn
        self.env = env

    def fire_one(self) -> None:
        index = self.index
        self.index = index + 1
        env = self.env
        if env is not None:
            env._now = float(self.times[index])
        self.fn()


class CalendarQueue:
    """Time-bucketed scheduler over event blocks.

    Each block is one calendar bucket: a pre-sorted SoA run of firings.
    The queue tracks which bucket holds the globally smallest pending key
    and how far that bucket may drain before the next competing key (the
    other buckets' heads; the caller folds in the ordinary event heap's
    head).  Bucket counts stay tiny -- one per in-flight coalesced batch
    -- so head selection is a linear scan, while each drain retires up to
    thousands of entries in one call.
    """

    __slots__ = ("_blocks",)

    def __init__(self):
        self._blocks: list[EventBlock] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __bool__(self) -> bool:
        return bool(self._blocks)

    @property
    def blocks(self) -> tuple[EventBlock, ...]:
        return tuple(self._blocks)

    def add(self, block: EventBlock) -> None:
        if block.exhausted:
            raise SimulationError("cannot schedule an exhausted event block")
        self._blocks.append(block)

    def discard(self, block: EventBlock) -> None:
        try:
            self._blocks.remove(block)
        except ValueError:
            pass

    def head(self) -> EventBlock | None:
        """The block holding the smallest pending ``(time, counter)`` key."""
        blocks = self._blocks
        if not blocks:
            return None
        best = blocks[0]
        best_key = (best.next_when, best.next_count)
        for block in blocks[1:]:
            key = (block.next_when, block.next_count)
            if key < best_key:
                best, best_key = block, key
        return best

    def bound_excluding(
        self, head: EventBlock, stop_when: float, stop_count: float
    ) -> tuple[float, float]:
        """Tighten a drain bound with every block's head except ``head``'s."""
        for block in self._blocks:
            if block is head:
                continue
            when = block.next_when
            if when < stop_when or (when == stop_when and block.next_count < stop_count):
                stop_when, stop_count = when, block.next_count
        return stop_when, stop_count

    def drain_head(
        self, stop_when: float, stop_count: float
    ) -> tuple[int, float, bool]:
        """Drain the head block up to the given bound (see EventBlock.drain).

        The bound is tightened by the other blocks' heads first; exhausted
        blocks are dropped.  Returns ``(fired, now, had_block)`` --
        ``had_block`` False means the calendar was empty.
        """
        head = self.head()
        if head is None:
            return 0, 0.0, False
        stop_when, stop_count = self.bound_excluding(head, stop_when, stop_count)
        fired, now, active = head.drain(stop_when, stop_count)
        if not active:
            self.discard(head)
        return fired, now, True


class ColumnarEnvironment(Environment):
    """An :class:`Environment` whose run loop merges a calendar-queue lane.

    Ordinary events and ``schedule_call`` callables go through the heap
    exactly as in the base class; event blocks (coalesced CPU batches,
    bulk scheduled calls) live in the calendar queue and drain in batches
    bounded by the heap head and each other.  All engine telemetry
    (``now``, ``events_processed``, ``queue_depth``) advances identically
    to the heap engine processing the same entries one by one.
    """

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self.calendar = CalendarQueue()

    # -- block scheduling ---------------------------------------------------

    def add_block(self, block: EventBlock) -> None:
        """Register a pre-built event block (its counters already reserved)."""
        if block.next_when < self._now:
            raise ValueError(
                f"block starts at {block.next_when} in the past (now={self._now})"
            )
        self.calendar.add(block)

    def schedule_block(
        self, times: Sequence[float], fn: Callable[[], None]
    ) -> EventBlock:
        """Bulk-schedule ``fn`` at each time through one SoA event block.

        Drop-in for :meth:`Environment.schedule_calls` with identical
        firing order (same counter sequence, same tie-breaking); the
        times must be nondecreasing since a block is one pre-sorted
        calendar bucket.
        """
        column = as_time_column(times)
        n = len(column)
        if n == 0:
            return CallBlock(column, self._counter, fn, self)
        prev = self._now
        for when in column:
            if when < prev:
                raise ValueError(
                    f"block times must be nondecreasing and in the future "
                    f"(got {when} after {prev})"
                )
            prev = when
        block = CallBlock(column, self.reserve_counters(n), fn, self)
        self.calendar.add(block)
        return block

    # -- engine telemetry ---------------------------------------------------

    def peek(self) -> float:
        heap_next = self._queue[0][0] if self._queue else _INF
        head = self.calendar.head()
        if head is None:
            return heap_next
        return min(heap_next, head.next_when)

    def stats(self) -> dict[str, float]:
        # Each live block mirrors exactly one pending heap entry in the
        # heap engine (the one-entry-per-batch invariant of the coalesced
        # recorder), so depth parity holds at every observability scrape.
        return {
            "now": self._now,
            "events_processed": float(self.events_processed),
            "queue_depth": float(len(self._queue) + len(self.calendar)),
        }

    # -- run loop -----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event from either lane."""
        head = self.calendar.head()
        if head is None:
            super().step()
            return
        if self._queue:
            when, count, _ = self._queue[0]
            if (when, count) < (head.next_when, head.next_count):
                super().step()
                return
            fired, now, _ = self.calendar.drain_head(when, count)
        else:
            fired, now, _ = self.calendar.drain_head(_INF, 0)
        self._now = now
        self.events_processed += fired

    def run(self, until: float | Event | None = None) -> Any:
        queue = self._queue
        calendar = self.calendar
        # The calendar's block list, tested directly: a Python-level
        # __bool__ per dispatched event is measurable on runs whose CPU
        # batches mostly take the heap lane.
        blocks = calendar._blocks
        processed = 0
        # The drain loop allocates heavily (events, spans, numpy columns)
        # but creates almost no garbage cycles mid-run; generational GC
        # passes cost ~25% of wall time for zero reclaimed memory.  Park
        # the collector for the duration and restore it afterwards --
        # purely an allocator tweak, simulation order is untouched.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if isinstance(until, Event):
                sentinel = until
                while sentinel.callbacks is not None:
                    if blocks:
                        if queue:
                            when, count, _ = queue[0]
                        else:
                            when, count = _INF, 0
                        head = calendar.head()
                        if head is not None and (
                            (head.next_when, head.next_count) < (when, count)
                        ):
                            fired, now, _ = calendar.drain_head(when, count)
                            self._now = now
                            processed += fired
                            continue
                    if not queue:
                        raise SimulationError(
                            "event queue drained before the awaited event fired"
                        )
                    # Inlined _dispatch_head: the call frame is measurable at
                    # ~100k dispatches per run.
                    when, _, event = _heappop(queue)
                    self._now = when
                    if not isinstance(event, Event):
                        event()  # a schedule_call() callable
                        processed += 1
                        continue
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if (
                        not event._ok
                        and not callbacks
                        and not isinstance(event, Process)
                    ):
                        raise event._value
                    processed += 1
                if sentinel.ok:
                    return sentinel.value
                raise sentinel.value
            deadline = _INF if until is None else float(until)
            if deadline != _INF and deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")
            while True:
                if blocks:
                    head = calendar.head()
                    # Entries at exactly the deadline still fire (heap
                    # parity: `queue[0][0] <= deadline` pops them).
                    if head is not None and head.next_when <= deadline:
                        if queue:
                            when, count, _ = queue[0]
                        else:
                            when, count = _INF, 0
                        if (head.next_when, head.next_count) < (when, count):
                            bw = when if when <= deadline else deadline
                            bc = count if when <= deadline else _INF
                            fired, now, _ = calendar.drain_head(bw, bc)
                            self._now = now
                            processed += fired
                            continue
                if not queue or queue[0][0] > deadline:
                    break
                # Inlined _dispatch_head (see the sentinel loop above).
                when, _, event = _heappop(queue)
                self._now = when
                if not isinstance(event, Event):
                    event()  # a schedule_call() callable
                    processed += 1
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if (
                    not event._ok
                    and not callbacks
                    and not isinstance(event, Process)
                ):
                    raise event._value
                processed += 1
            if deadline != _INF:
                self._now = deadline
            return None
        finally:
            self.events_processed += processed
            if gc_was_enabled:
                gc.enable()

    def _dispatch_head(self) -> int:
        """Pop and process one heap entry (base-class step semantics)."""
        when, _, event = _heappop(self._queue)
        self._now = when
        if not isinstance(event, Event):
            event()  # a schedule_call() callable
            return 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            raise event._value
        return 1
