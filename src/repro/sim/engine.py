"""Deterministic discrete-event simulation engine.

This is the substrate on which the entire MIND rack model runs.  It provides
a minimal but complete process-based discrete-event kernel:

- :class:`Engine` -- the event loop with a simulated clock (microseconds).
- :class:`Event` -- one-shot events that processes can wait on.
- :class:`Process` -- a generator-based cooperative process.  Yield a number
  to sleep for that many microseconds, an :class:`Event` to wait for it, or
  another :class:`Process` to join it.
- :class:`AllOf` -- barrier over several events (e.g. invalidation ACKs).
- :class:`Resource` -- a FIFO multi-server queue used to model queueing at
  blades, NICs, and the switch pipeline.

Determinism: ties in the event queue are broken by insertion order, and the
engine never consults wall-clock time, so a run is a pure function of its
inputs and seeds.

Fast paths (all order-preserving -- see DESIGN.md "kernel performance
model" for the argument):

- Future-time wake-ups live in a *calendar queue*: a rotating wheel of
  :data:`WHEEL_SLOTS` buckets, each covering one ``width``-microsecond
  window of simulated time.  Inserting into a future bucket is a plain
  list append (O(1)); only the bucket under the cursor is kept
  heap-ordered (heapified once when the cursor reaches it), and timers
  beyond the wheel's horizon overflow into a small heap that is drained
  as the cursor advances.  The bucket width adapts to the observed
  inter-event gap so buckets stay a few entries deep.  Total order is
  exactly the single-heap order: bucket assignment is monotone in time
  and every bucket is heap-ordered by ``(time, seq)`` before it is
  popped.  The earliest pending timer's ``(time, seq)`` is tracked in
  ``_due_head``/``_due_seq`` so fast-path guards cost one float compare.
- Zero-delay schedules (event callbacks, process starts) go to a FIFO
  *ready deque* instead of the calendar.  The run loop merges the deque
  and the calendar by the global ``(time, insertion seq)`` key, so
  execution order is exactly the order a single queue would have
  produced, while the dominant ``succeed()``-at-now traffic never pays
  any queue discipline at all.
- When a process sleeps and its wake-up would be the globally next event
  (the ready deque is empty and every pending timer is strictly later),
  the clock advances in place instead of taking a round trip through the
  calendar.  A bounded budget (:data:`MAX_INLINE_CONTINUATIONS`) keeps a
  lone sleeper from monopolising one dispatch.  ``Engine.subtask`` fuses
  a spawn-and-join child into its parent, and ``Resource.try_acquire``
  takes an uncontended grant inline, under the same guard: nothing else
  is due at the current instant, so the work would have run next anyway.
  A fused child's join re-checks the guard and re-queues the parent when
  work became ready or due while the child ran.
- Events created by ``Resource.acquire`` and ``Engine.timeout`` are
  recycled through a bounded freelist.  Pooled events are single-consumer
  by contract: exactly one process yields them, and their ``.value`` must
  be read through the ``yield`` expression, not off the event afterwards.

One dispatch loop (:meth:`Engine._loop`) serves both :meth:`Engine.run`
and :meth:`Engine.run_until_complete`, traced or not.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..obs.tracer import NULL_TRACER

#: consecutive inline clock advances one process may take before its next
#: wake-up goes through the calendar (guards against unbounded inline chains).
MAX_INLINE_CONTINUATIONS = 64

#: recycled events kept per engine; beyond this they fall to the GC.
EVENT_POOL_CAPACITY = 1024

#: calendar-queue geometry: a power-of-two bucket count so slot indexing is
#: a mask, wide enough that one revolution covers the near future at any
#: adapted width.
WHEEL_SLOTS = 256
WHEEL_MASK = WHEEL_SLOTS - 1

#: starting bucket width (microseconds of simulated time per bucket); the
#: engine re-derives it from the observed inter-pop gap as the run warms up.
DEFAULT_BUCKET_WIDTH_US = 2.0
MIN_BUCKET_WIDTH_US = 0.25
MAX_BUCKET_WIDTH_US = 64.0
#: timer pops between bucket-width recalibrations.
WIDTH_ADAPT_EVERY = 4096

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


class Event:
    """A one-shot event that carries a value once it succeeds.

    Processes wait on an event by ``yield``-ing it.  Multiple processes may
    wait on the same event; all are resumed (in wait order) when it fires.
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value", "_pooled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        # The callback list materialises on first waiter: most events in a
        # run (uncontended grants, short-lived completions) never get one.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self.triggered = False
        self.value: Any = None
        #: True while the event is owned by the engine's freelist discipline
        #: (created by ``Resource.acquire`` / ``Engine.timeout``).  Pooled
        #: events are single-consumer: one process yields them once.
        self._pooled = False

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, resuming all waiters at the current sim time."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            engine = self.engine
            now = engine.now
            append = engine._ready.append
            for cb in callbacks:
                engine._counter += 1
                append((now, engine._counter, cb, (self,)))
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.engine._schedule_now(cb, (self,))
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


class AllOf(Event):
    """An event that fires once all constituent events have fired.

    The value is the list of constituent values, in constituent order.  An
    empty constituent list fires immediately (useful for "wait for all ACKs"
    when there happen to be zero sharers).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
        else:
            for ev in self._events:
                ev.add_callback(self._child_fired)

    def _child_fired(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([ev.value for ev in self._events])


class Process(Event):
    """A cooperative process driven by a generator.

    The process itself is an :class:`Event` that fires (with the generator's
    return value) when the generator finishes, so processes can be joined by
    yielding them.
    """

    __slots__ = ("_gen", "_name", "_seq", "_t_start")

    def __init__(self, engine: "Engine", gen: Generator, name: Optional[str] = None):
        super().__init__(engine)
        self._gen = gen
        self._name = name
        self._seq = engine._processes_started
        # Cheap unconditional snapshot: the tracer is resolved at completion
        # time, so processes started before a cluster installs its tracer
        # still emit completion spans.
        self._t_start = engine.now
        engine._schedule_now(self._resume, (None,))

    @property
    def name(self) -> str:
        return self._name or f"proc-{self._seq}"

    def _resume(self, _wake: Any) -> None:
        engine = self.engine
        send = self._gen.send
        ready = engine._ready
        limit = engine._until
        if _wake is None:
            value = None
        else:
            # Pooled events are single-consumer (the value is read here,
            # the object is never retained), so the wake-up recycles it.
            value = _wake.value
            if _wake._pooled:
                engine._recycle(_wake)
        inline_budget = MAX_INLINE_CONTINUATIONS
        while True:
            try:
                target = send(value)
            except StopIteration as stop:
                # Release the finished generator (its frame storage lives
                # in the generator object); joiners read the return value,
                # which stays on this event.
                self._gen = None
                tracer = engine.tracer
                if tracer.enabled:
                    tracer.complete(
                        self._t_start,
                        engine.now - self._t_start,
                        "engine",
                        self.name,
                        track=tracer.track("processes"),
                    )
                self.succeed(stop.value)
                return
            # The exact-type check dodges isinstance's subclass walk for the
            # overwhelmingly common plain-float delay; events and the rare
            # int/numpy delays take the isinstance fallbacks below.
            if type(target) is not float:
                if isinstance(target, Event):
                    target.add_callback(self._resume)
                    return
                if not isinstance(target, (int, float)):
                    raise SimulationError(
                        f"process yielded unsupported value: {target!r}"
                    )
                target = float(target)
            if target > 0.0:
                wake = engine.now + target
                if (
                    inline_budget > 0
                    and not ready
                    and engine._due_head > wake
                    and (limit is None or wake <= limit)
                ):
                    # Inline clock advance: the wake-up at ``wake`` would be
                    # the globally next event (the ready deque is empty and
                    # every pending timer is strictly later), so advancing
                    # the clock and continuing here is unobservable -- the
                    # event set and all timestamps are exactly the queue
                    # path's.
                    inline_budget -= 1
                    engine.inline_clock_advances += 1
                    engine.now = wake
                    value = None
                    continue
                engine._push_timer(wake, self._resume, (None,))
                return
            if target < 0.0:
                raise SimulationError(f"negative timeout: {target!r}")
            engine._schedule_now(self._resume, (None,))
            return


class Engine:
    """The discrete-event loop.

    Time is a float in *microseconds*.  All state mutation happens inside
    scheduled callbacks, which are executed in (time, insertion order).
    """

    #: emit a scheduler-activity trace counter once per this many executed
    #: events (only when tracing is enabled).
    TRACE_EVERY = 1024

    def __init__(self) -> None:
        self.now: float = 0.0
        #: zero-delay entries, FIFO in insertion order; merged with the
        #: calendar by (time, seq) so the execution order matches a single
        #: queue.
        self._ready: deque = deque()
        self._counter = 0
        #: time limit of the innermost ``run(until=...)``; the inline
        #: clock-advance fast path must never step past it, because the
        #: slow path leaves later wake-ups parked in the calendar.
        self._until: Optional[float] = None
        self._processes_started = 0
        # -- calendar queue (future-time wake-ups) ----------------------
        #: rotating buckets; plain unsorted lists except the bucket under
        #: the cursor, which is heap-ordered by (time, seq).
        self._wheel: List[List] = [[] for _ in range(WHEEL_SLOTS)]
        #: entries currently resident in the wheel (not the overflow heap).
        self._wheel_count = 0
        #: global bucket number of the cursor; slot index is epoch & MASK.
        self._epoch = 0
        #: simulated microseconds of time each bucket covers.
        self._width = DEFAULT_BUCKET_WIDTH_US
        #: first timestamp past the wheel's horizon; entries at or beyond
        #: it go to the overflow heap.
        self._wheel_limit = WHEEL_SLOTS * DEFAULT_BUCKET_WIDTH_US
        #: far-future timers, heap-ordered; drained as the cursor advances.
        self._overflow: List = []
        #: (time, seq) of the earliest pending timer (+inf when none) --
        #: the one-compare guard every fast path checks.
        self._due_head: float = _INF
        self._due_seq = 0
        #: timer pops since engine start / since the last width adaptation.
        self._timer_pops = 0
        self._adapt_pops = 0
        self._adapt_now = 0.0
        # -- kernel counters --------------------------------------------
        self.events_executed = 0
        #: positive-delay waits absorbed by advancing the clock in place:
        #: the wake-up was provably the globally next event, so the queue
        #: round-trip is skipped and ``now`` is set directly.
        self.inline_clock_advances = 0
        #: spawn-and-join children run as plain nested generators because
        #: nothing else was due at the instant they started (see subtask).
        self.subtasks_fused = 0
        #: cursor advances across calendar buckets (including horizon jumps).
        self.calendar_rotations = 0
        #: wheel rebuilds triggered by bucket-width adaptation.
        self.calendar_rebuilds = 0
        #: cache-hit runs retired in one batch by the vectorized replay
        #: path (see ComputeBlade.run_thread); counted here so the perf
        #: harness sees all kernel-side fast paths in one place.
        self.batched_retires = 0
        #: recycled Events (Resource.acquire / timeout) awaiting reuse.
        self._event_pool: List[Event] = []
        #: the observability sink; NULL_TRACER unless a cluster installs one.
        self.tracer = NULL_TRACER
        #: named resources register here so run reports can rank queueing
        #: hotspots; anonymous resources (e.g. transient region locks) do
        #: not, keeping the registry bounded and deterministic.
        self.resources: List["Resource"] = []

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated time."""
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            self._counter += 1
            self._ready.append((self.now, self._counter, fn, args))
            return
        self._push_timer(self.now + delay, fn, args)

    def _schedule_now(self, fn: Callable, args: tuple) -> None:
        """Zero-delay schedule on the ready deque (internal hot path)."""
        self._counter += 1
        self._ready.append((self.now, self._counter, fn, args))

    def _push_timer(self, wake: float, fn: Callable, args: tuple) -> None:
        """Insert a future-time entry into the calendar (internal hot path).

        Bucket assignment is monotone in ``wake`` (one float divide), so
        popping buckets in cursor order after heapifying each preserves the
        exact (time, seq) total order of a single heap.
        """
        self._counter += 1
        entry = (wake, self._counter, fn, args)
        if wake >= self._wheel_limit:
            # Beyond the horizon (or +inf): park in the overflow heap; the
            # cursor drains it as it sweeps forward.
            heapq.heappush(self._overflow, entry)
        else:
            epoch = self._epoch
            bucket = int(wake / self._width)
            if bucket <= epoch:
                # At (or, after an inline clock advance, behind) the cursor
                # bucket: keep that bucket heap-ordered.
                heapq.heappush(self._wheel[epoch & WHEEL_MASK], entry)
            else:
                self._wheel[bucket & WHEEL_MASK].append(entry)
            self._wheel_count += 1
        if wake < self._due_head:
            self._due_head = wake
            self._due_seq = self._counter

    def _refill_cursor(self) -> Optional[List]:
        """Advance the cursor to the next non-empty bucket and heapify it.

        Pulls overflow entries due within each swept bucket's window along
        the way, and jumps straight to the overflow head's bucket when the
        wheel is empty (so sparse phases never pay an O(gap) scan).
        Returns the new cursor bucket, or None when no timers remain.
        Precondition: the current cursor bucket is empty.
        """
        if self._timer_pops - self._adapt_pops >= WIDTH_ADAPT_EVERY:
            self._maybe_resize()
        wheel = self._wheel
        overflow = self._overflow
        width = self._width
        epoch = self._epoch
        count = self._wheel_count
        if not count:
            if not overflow:
                return None
            jump = int(overflow[0][0] / width) - 1
            if jump > epoch:
                epoch = jump
        rotations = 0
        heappop = heapq.heappop
        while True:
            epoch += 1
            rotations += 1
            cur = wheel[epoch & WHEEL_MASK]
            boundary = (epoch + 1) * width
            while overflow and overflow[0][0] < boundary:
                cur.append(heappop(overflow))
                count += 1
            if cur:
                break
        heapq.heapify(cur)
        self._epoch = epoch
        self._wheel_count = count
        self._wheel_limit = (epoch + WHEEL_SLOTS) * width
        self.calendar_rotations += rotations
        return cur

    def _timer_pop(self):
        """Pop the earliest timer entry; maintains ``_due_head``/``_due_seq``.

        Precondition: at least one timer is pending (``_due_head < inf``).
        """
        cur = self._wheel[self._epoch & WHEEL_MASK]
        if not cur:
            cur = self._refill_cursor()
        entry = heapq.heappop(cur)
        self._wheel_count -= 1
        self._timer_pops += 1
        if not cur:
            cur = self._refill_cursor()
        if cur:
            head = cur[0]
            self._due_head = head[0]
            self._due_seq = head[1]
        else:
            self._due_head = _INF
            self._due_seq = 0
        return entry

    def _maybe_resize(self) -> None:
        """Re-derive the bucket width from the observed inter-pop gap.

        Aims for a few entries per bucket; widths snap to powers of two so
        jitter in the gap estimate cannot thrash the wheel.  A rebuild dumps
        every wheel entry into the overflow heap and re-anchors the cursor
        at the current clock -- the entry set and its total order are
        untouched, so this is invisible to the simulation.
        """
        pops = self._timer_pops
        delta = pops - self._adapt_pops
        span = self.now - self._adapt_now
        self._adapt_pops = pops
        self._adapt_now = self.now
        if span <= 0.0 or delta <= 0:
            return
        target = (span / delta) * 4.0
        if target < MIN_BUCKET_WIDTH_US:
            target = MIN_BUCKET_WIDTH_US
        elif target > MAX_BUCKET_WIDTH_US:
            target = MAX_BUCKET_WIDTH_US
        new_width = 2.0 ** round(math.log2(target))
        if new_width < MIN_BUCKET_WIDTH_US:
            new_width = MIN_BUCKET_WIDTH_US
        elif new_width > MAX_BUCKET_WIDTH_US:
            new_width = MAX_BUCKET_WIDTH_US
        if new_width == self._width:
            return
        overflow = self._overflow
        for bucket in self._wheel:
            if bucket:
                for entry in bucket:
                    heapq.heappush(overflow, entry)
                del bucket[:]
        self._wheel_count = 0
        self._width = new_width
        self._epoch = int(self.now / new_width)
        self._wheel_limit = (self._epoch + WHEEL_SLOTS) * new_width
        self.calendar_rebuilds += 1

    def pending_timer_count(self) -> int:
        """Future-time entries currently parked (wheel + overflow)."""
        return self._wheel_count + len(self._overflow)

    def _pooled_event(self) -> Event:
        """A recycled (or fresh) single-consumer event."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
        else:
            ev = Event(self)
        ev._pooled = True
        return ev

    def _recycle(self, ev: Event) -> None:
        """Return a pooled event to the freelist (resets one-shot state)."""
        ev._pooled = False
        if len(self._event_pool) < EVENT_POOL_CAPACITY:
            ev.triggered = False
            ev.value = None
            ev._callbacks = None
            self._event_pool.append(ev)

    def kernel_stats(self) -> Dict[str, int]:
        """Scheduler-side counters for the profiling harness.

        These describe the *kernel's* work (events dispatched, fast-path
        hits), not the simulated system, and are deliberately kept out of
        sweep metrics: fast-path changes shift them without changing any
        simulated result, and sweep documents must stay byte-comparable
        across kernel versions.
        """
        return {
            "events_executed": self.events_executed,
            "processes_started": self._processes_started,
            "inline_clock_advances": self.inline_clock_advances,
            "subtasks_fused": self.subtasks_fused,
            "calendar_rotations": self.calendar_rotations,
            "calendar_rebuilds": self.calendar_rebuilds,
            "batched_retires": self.batched_retires,
        }

    def event(self) -> Event:
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        self._processes_started += 1
        return Process(self, gen, name)

    def subtask(self, gen: Generator) -> Generator:
        """Spawn-and-join a child generator: ``result = yield from
        engine.subtask(gen)`` is semantically ``yield engine.process(gen)``.

        When nothing else is due at the current instant (so the child's
        start would have been the very next event) and tracing is off,
        the caller's ``yield from`` drives the child directly -- no Process
        allocation and no completion-event machinery.  The side-effect
        order is exactly what dispatching the child's start next would
        have produced.  Any other time -- or whenever the tracer is on, so
        per-process spans and names stay stable -- it falls back to a real
        spawn-and-join process.
        """
        if (
            not self._ready
            and not self.tracer.enabled
            and self._due_head > self.now
        ):
            self.subtasks_fused += 1
            return self._fused_join(gen)
        return self._spawn_join(gen)

    def _fused_join(self, gen: Generator) -> Generator:
        result = yield from gen
        if self._ready or self._due_head <= self.now:
            # A spawned child's completion would queue the parent behind
            # everything already ready or due at this instant; so must the
            # fused join.
            yield 0.0
        return result

    def _spawn_join(self, gen: Generator) -> Generator:
        return (yield self.process(gen))

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay`` microseconds.

        The event is recycled through the engine's freelist once the single
        process waiting on it resumes: read its value from the ``yield``
        expression, not from the event object afterwards, and do not share
        one timeout event between several waiters.
        """
        ev = self._pooled_event()
        self.schedule(delay, ev.succeed, value)
        return ev

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulated time.
        """
        self._until = until
        try:
            self._loop(until, None)
        finally:
            self._until = None
        return self.now

    def run_until_complete(self, ev: Event) -> Any:
        """Run until ``ev`` fires; returns its value.

        Unlike :meth:`run`, this stops as soon as the awaited event fires,
        so it works with perpetual background processes (epoch loops) still
        scheduled.  Raises if the queue drains without the event firing
        (a deadlock).
        """
        self._loop(None, ev)
        if not ev.triggered:
            raise SimulationError("event never fired: simulation deadlocked")
        return ev.value

    def _loop(self, until: Optional[float], ev: Optional[Event]) -> None:
        """Execute entries in global ``(time, seq)`` order, merging the
        ready deque with the calendar, until the queue drains, the next
        timer lies past ``until`` (the clock then stops at ``until``), or
        ``ev`` fires.  With tracing on, a queue-depth counter is emitted
        once per :attr:`TRACE_EVERY` executed events.
        """
        ready = self._ready
        tracer = self.tracer
        traced = tracer.enabled
        executed = 0
        try:
            while ev is None or not ev.triggered:
                if ready:
                    due = self._due_head
                    first = ready[0]
                    if due < first[0] or (
                        due == first[0] and self._due_seq < first[1]
                    ):
                        entry = self._timer_pop()
                    else:
                        entry = ready.popleft()
                elif self._due_head != _INF:
                    if until is not None and self._due_head > until:
                        self.now = until
                        return
                    entry = self._timer_pop()
                else:
                    return
                self.now = entry[0]
                entry[2](*entry[3])
                executed += 1
                if traced and (self.events_executed + executed) % self.TRACE_EVERY == 0:
                    tracer.counter(
                        self.now, "engine", "event_queue_depth",
                        self.pending_timer_count() + len(ready),
                    )
        finally:
            # Also on a raising callback: every event that ran is counted.
            self.events_executed += executed

    def run_process(self, gen: Generator, name: Optional[str] = None) -> Any:
        """Convenience: start a process, run until it completes, return its
        value.  Background processes keep their pending events queued."""
        proc = self.process(gen, name)
        return self.run_until_complete(proc)


class Resource:
    """A FIFO multi-server resource for modelling queueing delays.

    ``capacity`` servers; excess requests queue in arrival order.  Usage::

        token = yield resource.acquire()
        try:
            yield service_time
        finally:
            resource.release()

    The acquire event's value is the queueing delay experienced, which the
    caller may record (e.g. invalidation queueing in Fig. 7 right).  Read
    it from the ``yield`` expression: acquire events are recycled through
    the engine's freelist once the acquiring process resumes, so the event
    object must not be consulted (or waited on by a second process) after
    the grant.

    Naming a resource registers it with the engine so run reports can rank
    queueing hotspots by accumulated wait time; anonymous resources stay
    unregistered (transient locks would bloat the registry).
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_in_use",
        "_waiters",
        "busy_time",
        "_last_change",
        "total_wait_us",
        "waits",
        "grants",
    )

    def __init__(self, engine: Engine, capacity: int = 1, name: Optional[str] = None):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque = deque()
        self.busy_time = 0.0
        self._last_change = 0.0
        #: accumulated queueing delay across all granted acquisitions.
        self.total_wait_us = 0.0
        #: acquisitions that had to queue / total acquisitions granted.
        self.waits = 0
        self.grants = 0
        if name is not None:
            engine.resources.append(self)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def in_use(self) -> int:
        return self._in_use

    def _account(self) -> None:
        now = self.engine.now
        if now != self._last_change:
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now

    def try_acquire(self) -> bool:
        """Inline uncontended grant; True iff the caller now holds a server.

        Semantically ``(yield self.acquire()) == 0.0`` with identical
        accounting, minus the event object and the scheduler round trip.
        Only takes effect when the grant is provably unobservable: the
        resource has a free server *and* nothing else is due at the current
        instant, so the acquiring process would have been resumed next
        anyway (the same guard :meth:`Engine.subtask` uses).  On
        False the caller must fall back to ``yield self.acquire()``.
        """
        if self._in_use >= self.capacity:
            return False
        engine = self.engine
        if engine._ready or engine._due_head <= engine.now:
            return False
        now = engine.now
        if now != self._last_change:  # _account(), inlined on the hot path
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        self._in_use += 1
        self.grants += 1
        return True

    def acquire(self) -> Event:
        engine = self.engine
        ev = engine._pooled_event()
        now = engine.now
        if now != self._last_change:  # _account(), inlined on the hot path
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grants += 1
            ev.triggered = True
            ev.value = 0.0
        else:
            self._waiters.append((engine.now, ev))
            if self.name is not None and engine.tracer.enabled:
                tracer = engine.tracer
                tracer.counter(
                    engine.now,
                    "resource",
                    f"{self.name}.queue",
                    len(self._waiters),
                    track=tracer.track("resources"),
                )
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        now = self.engine.now
        if now != self._last_change:  # _account(), inlined on the hot path
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        if self._waiters:
            arrived, ev = self._waiters.popleft()
            wait = self.engine.now - arrived
            self.total_wait_us += wait
            self.waits += 1
            self.grants += 1
            if self.name is not None and self.engine.tracer.enabled:
                tracer = self.engine.tracer
                tracer.complete(
                    arrived,
                    wait,
                    "resource",
                    f"{self.name}.wait",
                    track=tracer.track("resources"),
                )
            ev.succeed(wait)
        else:
            self._in_use -= 1

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since engine start."""
        self._account()
        if self.engine.now <= 0:
            return 0.0
        return self.busy_time / (self.engine.now * self.capacity)

    def busy_integral(self) -> float:
        """Capacity-time integral of use so far (advances accounting first).

        Dividing by ``horizon * capacity`` reproduces :meth:`utilization`
        against an arbitrary horizon; the multirack fabric's telemetry
        capture divides by its engine's end-of-run clock.
        """
        self._account()
        return self.busy_time
