"""In-memory span recording around the simulator's public functions.

The traced run patches a fixed list of functions (see ``layers.TRACE_POINTS``)
with wrappers that record one span per call.  Functions that return a
generator are also timed per resume: the returned generator is replaced by a
:class:`TimedGen` proxy, and every ``send``/``throw`` becomes its own span,
so a simulated process that is suspended for simulated microseconds does not
charge that host time to anyone.

Spans nest strictly (every span opens and closes inside its parent's Python
call), so a single stack gives each span's parent and its self time, which is
its duration minus the time covered by its child spans.  Nothing here touches
simulator state: a traced run executes the same simulated events as an
untraced one, which the benchmark checks by comparing their digests.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class SpanRecorder:
    """Spans of one run: ``(id, parent id, name, start, end)`` plus totals.

    Spans are kept in flat arrays (36 bytes each) and written out by
    :meth:`write` after the run; per-name call counts, self time and total
    time are accumulated as spans close.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._stack: List[list] = []
        self._next_id = 0
        self.ids = array("q")
        self.parents = array("q")
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, nid, _perf(), 0.0])

    def exit(self) -> None:
        end = _perf()
        stack = self._stack
        sid, nid, start, child = stack.pop()
        dur = end - start
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if stack:
            parent = stack[-1]
            parent[3] += dur
            self.parents.append(parent[0])
        else:
            self.parents.append(-1)
        self.ids.append(sid)
        self.name_of.append(nid)
        self.starts.append(start)
        self.ends.append(end)

    # -- results ------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, self seconds, total seconds)``."""
        return {
            name: (self.calls[i], self.self_s[i], self.total_s[i])
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span, gzip-compressed: a JSON header line, then one CSV
        row per span (``id,parent,name_index,start_s,end_s``, times relative
        to the first span's start)."""
        origin = min(self.starts) if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names}) + "\n")
            rows = zip(self.ids, self.parents, self.name_of, self.starts, self.ends)
            fh.writelines(
                f"{sid},{pid},{nid},{s - origin:.9f},{e - origin:.9f}\n"
                for sid, pid, nid, s, e in rows
            )


class TimedGen:
    """Generator proxy that records one span per resume of ``gen``."""

    __slots__ = ("_rec", "_nid", "_gen")

    def __init__(self, rec: SpanRecorder, nid: int, gen):
        self._rec = rec
        self._nid = nid
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        rec.enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            rec.exit()

    def throw(self, *args):
        rec = self._rec
        rec.enter(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            rec.exit()

    def close(self):
        return self._gen.close()


def patch(owner: object, attr: str, make: Callable) -> None:
    """Set ``owner.attr = make(original)`` for the rest of the process."""
    setattr(owner, attr, make(getattr(owner, attr)))


def traced(
    rec: SpanRecorder,
    name: str,
    on_return: Optional[Callable[[tuple, object], None]] = None,
) -> Callable:
    """Wrapper factory for :func:`patch`: a span per call, and per
    resume when the call returns a generator.  ``on_return(args, value)``
    sees every call's arguments and return value."""
    nid = rec.name_id(name)
    calls = rec.calls

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            rec.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit()
            if on_return is not None:
                on_return(args, out)
            if type(out) is types.GeneratorType:
                return TimedGen(rec, nid, out)
            return out

        return wrapper

    return make


def busy_wait(seconds: float) -> None:
    """Spin (no sleep) for ``seconds`` of host time."""
    deadline = _perf() + seconds
    while _perf() < deadline:
        pass


def slowed(seconds: float) -> Callable:
    """Wrapper factory that adds a fixed busy-wait before every call."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            busy_wait(seconds)
            return fn(*args, **kwargs)

        return wrapper

    return make
