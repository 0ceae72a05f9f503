"""Unit tests for the trace framework."""

from array import array

import numpy as np
import pytest

from repro.sim.network import PAGE_SIZE
from repro.sweep.spec import WORKLOAD_BUILDERS
from repro.workloads import FileWorkload, TeamSharingWorkload, record_workload
from repro.workloads.synthetic import UniformSharingWorkload
from repro.workloads.trace import (
    AccessStream,
    RegionSpec,
    ThreadTrace,
    interleave,
    stable_seed,
)


def make_workload(**kwargs):
    kwargs.setdefault("num_threads", 2)
    kwargs.setdefault("accesses_per_thread", 500)
    kwargs.setdefault("shared_pages", 64)
    kwargs.setdefault("private_pages_per_thread", 16)
    return UniformSharingWorkload(**kwargs)


def bases_for(workload, start=0x100000, stride=1 << 24):
    return [start + i * stride for i in range(len(workload.region_specs()))]


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2) == stable_seed("a", 1, 2)

    def test_varies_with_inputs(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)


class TestRegionSpec:
    def test_num_pages(self):
        assert RegionSpec("x", 3 * PAGE_SIZE).num_pages == 3
        assert RegionSpec("x", 100).num_pages == 1


class TestBinding:
    def test_trace_is_deterministic(self):
        wl = make_workload()
        bases = bases_for(wl)
        t1 = wl.thread_trace(0, bases)
        t2 = wl.thread_trace(0, bases)
        assert (t1.vas == t2.vas).all()
        assert (t1.writes == t2.writes).all()

    def test_threads_differ(self):
        wl = make_workload()
        bases = bases_for(wl)
        t0 = wl.thread_trace(0, bases)
        t1 = wl.thread_trace(1, bases)
        assert not (t0.vas == t1.vas).all()

    def test_seed_changes_trace(self):
        bases = bases_for(make_workload())
        a = make_workload(seed=1).thread_trace(0, bases)
        b = make_workload(seed=2).thread_trace(0, bases)
        assert not (a.vas == b.vas).all()

    def test_length_matches_request(self):
        wl = make_workload(accesses_per_thread=123)
        assert len(wl.thread_trace(0, bases_for(wl))) == 123

    def test_addresses_within_regions(self):
        wl = make_workload()
        bases = bases_for(wl)
        specs = wl.region_specs()
        trace = wl.thread_trace(0, bases)
        spans = [(b, b + s.size_bytes) for b, s in zip(bases, specs)]
        for va in trace.vas[:100].tolist():
            assert any(lo <= va < hi for lo, hi in spans)

    def test_wrong_base_count_rejected(self):
        wl = make_workload()
        with pytest.raises(ValueError):
            wl.thread_trace(0, [0x1000])

    def test_all_traces(self):
        wl = make_workload(num_threads=3)
        traces = wl.all_traces(bases_for(wl))
        assert [t.thread_id for t in traces] == [0, 1, 2]


@pytest.mark.parametrize("name", sorted(WORKLOAD_BUILDERS) + ["scoped", "file"])
def test_streams_match_all_traces(name, tmp_path):
    """``streams`` packs what ``all_traces`` binds, in thread order."""

    def make():
        if name == "scoped":
            return TeamSharingWorkload(4, accesses_per_thread=300, team_size=2, seed=5)
        if name == "file":
            return FileWorkload(tmp_path / "bundle.npz", burst=3)
        return WORKLOAD_BUILDERS[name](4, seed=5, accesses_per_thread=300)

    if name == "file":
        record_workload(WORKLOAD_BUILDERS["uniform"](4, seed=5), tmp_path / "bundle.npz")
    bases = bases_for(make())
    got = make().streams(bases)
    want = [t.stream() for t in make().all_traces(bases)]
    assert len(got) == len(want) == 4
    assert [(g.vas, g.writes) for g in got] == [(w.vas, w.writes) for w in want]


class TestBurst:
    def test_burst_repeats_pages(self):
        wl = make_workload(burst=4, accesses_per_thread=400)
        trace = wl.thread_trace(0, bases_for(wl))
        vas = trace.vas
        # Consecutive groups of 4 identical addresses.
        assert (vas[0:4] == vas[0]).all()
        assert len(trace) == 400

    def test_burst_one_no_repeat_structure(self):
        wl = make_workload(burst=1, accesses_per_thread=400, shared_pages=10_000,
                           sharing_ratio=1.0)
        trace = wl.thread_trace(0, bases_for(wl))
        # With a large page pool, immediate repeats are rare.
        repeats = (trace.vas[1:] == trace.vas[:-1]).mean()
        assert repeats < 0.05

    def test_num_touches(self):
        wl = make_workload(burst=8, accesses_per_thread=100)
        assert wl.num_touches == 13

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            make_workload(burst=0)


class TestStats:
    def test_write_fraction(self):
        wl = make_workload(read_ratio=1.0)
        trace = wl.thread_trace(0, bases_for(wl))
        assert trace.write_fraction == 0.0
        wl = make_workload(read_ratio=0.0)
        trace = wl.thread_trace(0, bases_for(wl))
        assert trace.write_fraction == 1.0

    def test_footprint(self):
        wl = make_workload(num_threads=2, shared_pages=64, private_pages_per_thread=16)
        assert wl.footprint_bytes() == (64 + 2 * 16) * PAGE_SIZE

    def test_describe(self):
        assert "threads" in make_workload().describe()


class TestInterleave:
    def _trace(self, tid, n, start):
        vas = np.arange(start, start + n, dtype=np.int64) * PAGE_SIZE
        return ThreadTrace(tid, vas, np.zeros(n, dtype=bool))

    def test_preserves_all_accesses(self):
        merged = interleave([self._trace(0, 100, 0), self._trace(1, 150, 1000)])
        assert len(merged) == 250

    def test_round_robin_chunks(self):
        merged = interleave(
            [self._trace(0, 8, 0), self._trace(1, 8, 1000)], chunk=4
        )
        # First 4 from trace 0, next 4 from trace 1, then alternate back.
        assert (merged.vas[:4] < 1000 * PAGE_SIZE).all()
        assert (merged.vas[4:8] >= 1000 * PAGE_SIZE).all()
        assert (merged.vas[8:12] < 1000 * PAGE_SIZE).all()

    def test_uneven_lengths(self):
        merged = interleave([self._trace(0, 2, 0), self._trace(1, 10, 1000)], chunk=4)
        assert len(merged) == 12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            interleave([])


class TestAccessStreamPacking:
    """``from_numpy`` packs the raw buffer; it must equal the ``tolist()`` form."""

    @staticmethod
    def _via_list(vas, writes):
        return array("q", np.asarray(vas).astype(np.int64).tolist()), bytes(
            1 if w else 0 for w in np.asarray(writes).tolist()
        )

    @pytest.mark.parametrize(
        "vas",
        [
            np.arange(0, 50 * PAGE_SIZE, PAGE_SIZE, dtype=np.int32),
            (np.arange(40, dtype=np.int64) * PAGE_SIZE + (1 << 40))[::2],
            np.array([-PAGE_SIZE, 0, PAGE_SIZE], dtype=np.int64),
            np.array([], dtype=np.int64),
        ],
        ids=["int32", "strided", "signed", "empty"],
    )
    def test_matches_tolist_path(self, vas):
        writes = np.arange(len(vas)) % 3 == 0
        stream = AccessStream.from_numpy(vas, writes)
        want_vas, want_writes = self._via_list(vas, writes)
        assert stream.vas.typecode == "q"
        assert stream.vas == want_vas
        assert stream.writes == want_writes
