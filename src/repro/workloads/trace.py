"""Workload traces: the framework for replayable memory-access streams.

The paper captures each application's memory accesses with Intel PIN and
replays the *identical* stream on MIND, GAM and FastSwap so that systems
with different interfaces see the same work (Section 7).  We reproduce that
methodology: a :class:`TraceWorkload` deterministically generates, from a
seed, a per-thread stream of ``(virtual address, is_write)`` accesses over
a set of mmapped regions; every system replays the same stream.

Addresses are produced region-relative (region index + page offset) and
bound to real virtual addresses only after the target system performs its
allocations, since different systems may place regions differently.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..sim.network import PAGE_SIZE
from ..sim.rng import make_rng


def stable_seed(*parts) -> int:
    """Process-independent seed from arbitrary parts (``hash()`` is salted
    per interpreter run, which would break trace reproducibility)."""
    import zlib

    text = "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


@dataclass(frozen=True)
class RegionSpec:
    """One mmapped region a workload uses."""

    name: str
    size_bytes: int

    @property
    def num_pages(self) -> int:
        return max(1, self.size_bytes // PAGE_SIZE)


class AccessStream:
    """A replay-ready access stream in compact array form.

    Virtual addresses live in an ``array('q')`` and the read/write flags in
    a ``bytes`` of 0/1 -- one machine word + one byte per access instead of
    a Python tuple, int and bool.  ``run_thread`` implementations iterate
    the two sequences index-wise, which avoids materialising a tuple per
    replayed access on the simulator's hottest path.

    The class still iterates as ``(va, is_write)`` pairs so code written
    against the tuple protocol (tests, the public API) keeps working.
    """

    __slots__ = ("vas", "writes")

    def __init__(self, vas: "array[int]", writes: bytes):
        if len(vas) != len(writes):
            raise ValueError(
                f"stream arrays disagree: {len(vas)} addresses, "
                f"{len(writes)} write flags"
            )
        self.vas = vas
        self.writes = writes

    @classmethod
    def from_numpy(cls, vas: np.ndarray, writes: np.ndarray) -> "AccessStream":
        # Pack the raw int64 buffer: no Python int is made per access.
        packed = array("q")
        packed.frombytes(
            memoryview(np.ascontiguousarray(vas, dtype=np.int64)).cast("B")
        )
        return cls(packed, np.asarray(writes, dtype=np.uint8).tobytes())

    @classmethod
    def coerce(cls, accesses: "AccessOrStream") -> "AccessStream":
        """Accept either a stream or any ``(va, is_write)`` iterable."""
        if isinstance(accesses, cls):
            return accesses
        vas = array("q")
        flags = bytearray()
        for va, is_write in accesses:
            vas.append(va)
            flags.append(1 if is_write else 0)
        return cls(vas, bytes(flags))

    def __len__(self) -> int:
        return len(self.vas)

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        return zip(self.vas, map(bool, self.writes))

    def slice(self, start: int, stop: int) -> "AccessStream":
        """A sub-stream over ``[start, stop)`` (clamped to the length).

        Used by the open-loop driver to replay a trace request-by-request;
        slicing the backing arrays copies only the selected accesses.
        """
        return AccessStream(self.vas[start:stop], self.writes[start:stop])


#: what replay endpoints accept: a compact stream or any tuple iterable.
AccessOrStream = Iterable[Tuple[int, bool]]


@dataclass
class ThreadTrace:
    """One thread's access stream, bound to concrete virtual addresses."""

    thread_id: int
    vas: np.ndarray      # int64 virtual addresses
    writes: np.ndarray   # bool

    def __len__(self) -> int:
        return len(self.vas)

    def accesses(self) -> Iterator[Tuple[int, bool]]:
        """Iterate ``(va, is_write)`` tuples (plain ints/bools for speed)."""
        return zip(self.vas.tolist(), self.writes.tolist())

    def stream(self) -> AccessStream:
        """The compact array-backed form of this trace."""
        return AccessStream.from_numpy(self.vas, self.writes)

    @property
    def write_fraction(self) -> float:
        return float(self.writes.mean()) if len(self.writes) else 0.0


class TraceWorkload(abc.ABC):
    """A deterministic workload: region plan + per-thread access streams.

    Subclasses implement :meth:`region_specs` (what to mmap) and
    :meth:`_generate` (region-relative accesses).  The same
    ``(workload, seed, thread_id)`` triple always yields the same stream,
    which is what makes cross-system comparisons apples-to-apples.
    """

    name: str = "workload"

    def __init__(
        self,
        num_threads: int,
        accesses_per_thread: int,
        seed: int = 1,
        burst: int = 1,
    ):
        if num_threads < 1:
            raise ValueError("need at least one thread")
        if accesses_per_thread < 1:
            raise ValueError("need at least one access per thread")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.num_threads = num_threads
        self.accesses_per_thread = accesses_per_thread
        self.seed = seed
        #: temporal locality: each generated page-touch is replayed as this
        #: many consecutive accesses (real applications issue many loads/
        #: stores per page visit; PIN traces show the same page repeated).
        self.burst = burst
        #: memoized region-relative streams per thread.  Generation is a
        #: pure function of (workload, seed, thread), so caching is safe;
        #: sweeps replay the same workload on several systems and pay for
        #: generation once instead of once per point.
        self._generated: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def num_touches(self) -> int:
        """Page-touches a generator must produce per thread (pre-burst)."""
        return -(-self.accesses_per_thread // self.burst)

    # -- to be provided by concrete workloads ------------------------------

    @abc.abstractmethod
    def region_specs(self) -> List[RegionSpec]:
        """The regions this workload mmaps, in index order."""

    @abc.abstractmethod
    def _generate(
        self, thread_id: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Region-relative stream: (region indices, page indices, writes)."""

    # -- binding ----------------------------------------------------------------

    def thread_trace(self, thread_id: int, bases: Sequence[int]) -> ThreadTrace:
        """Bind thread ``thread_id``'s stream to allocated region bases."""
        specs = self.region_specs()
        if len(bases) != len(specs):
            raise ValueError(
                f"{self.name}: got {len(bases)} bases for {len(specs)} regions"
            )
        cached = self._generated.get(thread_id)
        if cached is None:
            rng = make_rng(stable_seed(self.name, self.seed, thread_id))
            cached = self._generate(thread_id, rng)
            self._generated[thread_id] = cached
        regions, pages, writes = cached
        if not (len(regions) == len(pages) == len(writes)):
            raise ValueError("generator returned mismatched arrays")
        if self.burst > 1:
            regions = np.repeat(regions, self.burst)[: self.accesses_per_thread]
            pages = np.repeat(pages, self.burst)[: self.accesses_per_thread]
            writes = np.repeat(writes, self.burst)[: self.accesses_per_thread]
        base_arr = np.asarray(list(bases), dtype=np.int64)
        vas = base_arr[regions] + pages.astype(np.int64) * PAGE_SIZE
        return ThreadTrace(thread_id, vas, writes.astype(bool))

    def all_traces(self, bases: Sequence[int]) -> List[ThreadTrace]:
        return [self.thread_trace(t, bases) for t in range(self.num_threads)]

    def streams(self, bases: Sequence[int]) -> List[AccessStream]:
        """Every thread's bound stream, indexed by thread id.

        Replay needs only the compact form, so the bound numpy traces are
        dropped once their streams are packed: a run keeps one copy.
        """
        return [t.stream() for t in self.all_traces(bases)]

    # -- summary statistics (used by tests & docs) -------------------------------

    def footprint_bytes(self) -> int:
        return sum(spec.size_bytes for spec in self.region_specs())

    def describe(self) -> str:
        specs = self.region_specs()
        return (
            f"{self.name}: {self.num_threads} threads x "
            f"{self.accesses_per_thread} accesses, "
            f"{len(specs)} regions, {self.footprint_bytes() / (1 << 20):.1f} MiB"
        )


def interleave(traces: List[ThreadTrace], chunk: int = 64) -> ThreadTrace:
    """Merge several thread traces round-robin into one stream.

    Used by the single-threaded baselines (FastSwap replays all threads'
    accesses on one blade) to preserve the interleaving the threads would
    have produced.
    """
    if not traces:
        raise ValueError("no traces to interleave")
    vas_parts: List[np.ndarray] = []
    writes_parts: List[np.ndarray] = []
    cursors = [0] * len(traces)
    remaining = sum(len(t) for t in traces)
    while remaining > 0:
        for i, trace in enumerate(traces):
            start = cursors[i]
            if start >= len(trace):
                continue
            stop = min(start + chunk, len(trace))
            vas_parts.append(trace.vas[start:stop])
            writes_parts.append(trace.writes[start:stop])
            remaining -= stop - start
            cursors[i] = stop
    return ThreadTrace(
        thread_id=-1,
        vas=np.concatenate(vas_parts),
        writes=np.concatenate(writes_parts),
    )
