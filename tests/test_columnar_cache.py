"""The columnar reader's decode cache against two oracles.

:class:`~repro.store.columnar.ColumnarReader` keeps decoded chunks and
an incrementally scanned WAL tail for its whole life.  The property
test drives a store through random appends (with out-of-order
stragglers), commits, compactions, segment rotations, age-retention
drops and crash/recovery, and after every step checks that the
long-lived cached reader, a freshly opened reader and an unbounded
in-memory oracle rebuilt from the model's durable samples answer every
:class:`HistoryQuery` shape bit for bit alike.  The counting test pins
the point of the cache: a repeated read decodes nothing.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.store.columnar as columnar_module
from repro.context.broker import ContextBroker
from repro.context.history import MINUTE_S, HistoryQuery, ShortTermHistory
from repro.simkernel.simulator import Simulator
from repro.store import (
    DurabilityService,
    RetentionConfig,
    RetentionPolicy,
    SegmentStore,
    open_columnar_reader,
)
from repro.store.segment import segments_in

SERIES = (
    ("urn:AgriParcel:demo:0-0", "soilMoisture"),
    ("urn:AgriParcel:demo:0-0", "soilTemperature"),
    ("urn:AgriParcel:demo:0-1", "soilMoisture"),
)
MAX_AGE_S = 900.0


def query_shapes(entity_id, attr):
    """One query of every shape: raw, windowed raw, lastN, each rollup
    method, a windowed rollup, and whole/windowed aggregates."""
    shapes = [
        HistoryQuery(entity_id, attr),
        HistoryQuery(entity_id, attr, since=300.0, until=1500.0),
        HistoryQuery(entity_id, attr, aggregate=True),
        HistoryQuery(entity_id, attr, aggregate=True, since=600.0, until=2400.0),
        HistoryQuery(entity_id, attr, period_s=MINUTE_S, method="mean",
                     since=240.0, until=1800.0),
    ]
    shapes += [HistoryQuery(entity_id, attr, last_n=n) for n in (1, 4, 40)]
    shapes += [HistoryQuery(entity_id, attr, period_s=MINUTE_S, method=method)
               for method in ("mean", "sum", "min", "max", "count")]
    return shapes


def answers(read):
    """``repr`` of every shape's rows and stats: equal strings mean
    bit-identical floats (``repr`` round-trips and tells -0.0 apart)."""
    out = []
    for entity_id, attr in SERIES:
        for query in query_shapes(entity_id, attr):
            result = read(query)
            out.append(repr((query, result.rows, result.stats)))
    return out


def rig(root):
    """Store + compaction with an age-retention policy; no pumps fire
    (the test drives every commit and compaction itself)."""
    sim = Simulator(seed=1)
    history = ShortTermHistory(ContextBroker(sim), rollup_periods=(MINUTE_S,))
    store = SegmentStore(root, max_segment_bytes=400)
    service = DurabilityService(sim, history, store)
    compaction = service.enable_compaction(
        interval_s=1e9, block_size=4,
        retention=RetentionConfig(default=RetentionPolicy(max_age_s=MAX_AGE_S)))
    return sim, service, compaction


samples = st.lists(
    st.tuples(
        st.sampled_from(SERIES),
        # Offsets before ``now`` are stragglers: late, out-of-order samples.
        st.floats(min_value=-600.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=1, max_size=12,
)


class ColumnarCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="columnar-cache-")
        self.sim, self.service, self.compaction = rig(self.root)
        self.store = self.service.store
        self.reader = self.compaction.reader
        #: Every accepted sample by global sequence number; a crash
        #: truncates it to what recovery brought back.
        self.accepted = []
        #: Sequence numbers retention dropped, read off each dropped
        #: chunk's header as the drop is decided (a chunk can be sealed
        #: and dropped by one ``compact_once``).
        self.dropped = set()
        columnar = self.compaction.columnar
        begin_drop = columnar.begin_drop

        def recording_begin_drop(indexes, accounting):
            for index in indexes:
                header = columnar.header(index)
                first = header["first_seq"]
                self.dropped.update(range(first, first + header["records"]))
            begin_drop(indexes, accounting)
        columnar.begin_drop = recording_begin_drop
        #: Sequence numbers below this are covered by an fsync barrier.
        self.committed_end = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _append(self, entity_id, attr, offset, value):
        rotations = self.store.rotations
        t = max(0.0, self.sim.now + offset)
        self.service.on_sample(entity_id, attr, t, value)
        self.accepted.append((entity_id, attr, t, value))
        if self.store.rotations != rotations:
            # Rotation is a barrier: everything appended so far is durable.
            self.committed_end = len(self.accepted)

    def _retained(self):
        return [sample for seq, sample in enumerate(self.accepted)
                if seq not in self.dropped]

    @rule(batch=samples)
    def append(self, batch):
        for (entity_id, attr), offset, value in batch:
            self._append(entity_id, attr, offset, value)

    @rule(series=st.sampled_from(SERIES), value=st.floats(-1.0, 1.0))
    def append_until_rotation(self, series, value):
        rotations = self.store.rotations
        while self.store.rotations == rotations:
            self._append(series[0], series[1], 0.0, value)

    @rule(dt=st.floats(min_value=1.0, max_value=600.0))
    def advance_clock(self, dt):
        self.sim.run_until(self.sim.now + dt)

    @rule()
    def commit(self):
        assert self.service.flush_now()
        self.committed_end = len(self.accepted)

    @rule()
    def compact(self):
        self.compaction.compact_once()

    @rule()
    def retention_drop(self):
        # Age every chunk past the horizon that holds no fresh sample.
        self.sim.run_until(self.sim.now + MAX_AGE_S)
        self.compaction.enforce_retention()

    @rule(tail=st.integers(min_value=0, max_value=120))
    def crash_and_recover(self, tail):
        self.service.crash_and_recover(surviving_tail_bytes=tail)
        recovered_end = self.compaction.columnar.wal_base_seq + self.store.appended
        assert self.committed_end <= recovered_end <= len(self.accepted)
        assert self.service.lost_committed == 0
        assert self.service.prefix_consistent
        del self.accepted[recovered_end:]
        self.committed_end = recovered_end

    @invariant()
    def readers_agree_with_the_oracle(self):
        oracle = ShortTermHistory(ContextBroker(Simulator(seed=0)),
                                  max_samples_per_series=1_000_000,
                                  max_buckets_per_series=1_000_000,
                                  rollup_periods=(MINUTE_S,))
        oracle.rebuild_from_samples(self._retained())
        expected = answers(lambda q: oracle.read(q, source="memory"))
        assert answers(self.reader.read) == expected
        # The cache holds retained chunks and resident segments only.
        assert set(self.reader._chunks) <= set(self.compaction.columnar.chunk_indexes())
        assert list(self.reader._segments) == [i for i, _ in segments_in(self.root)]
        fresh = open_columnar_reader(self.root)
        try:
            assert answers(fresh.read) == expected
        finally:
            fresh.store.close()


TestColumnarCacheProperty = ColumnarCacheMachine.TestCase
TestColumnarCacheProperty.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture
def decode_counts(monkeypatch):
    """Count ``decode_chunk`` and ``decode_sample`` calls made by the
    columnar module."""
    counts = {"chunks": 0, "records": 0}

    def counting(name, key):
        real = getattr(columnar_module, name)

        def wrapper(payload):
            counts[key] += 1
            return real(payload)
        monkeypatch.setattr(columnar_module, name, wrapper)

    counting("decode_chunk", "chunks")
    counting("decode_sample", "records")
    return counts


def test_repeated_read_decodes_nothing(tmp_path, decode_counts):
    sim, service, compaction = rig(str(tmp_path))
    entity_id, attr = SERIES[0]
    for i in range(60):
        service.on_sample(entity_id, attr, 10.0 * i, 0.5 * i)
    service.flush_now()
    compaction.compact_once()
    for i in range(60, 65):
        service.on_sample(entity_id, attr, 10.0 * i, 0.5 * i)
    assert compaction.columnar.chunk_indexes() and service.store.appended
    reader = compaction.reader
    query = HistoryQuery(entity_id, attr)

    first = reader.read(query)
    assert decode_counts["chunks"] > 0 and decode_counts["records"] > 0

    decode_counts.update(chunks=0, records=0)
    again = reader.read(query)
    assert decode_counts == {"chunks": 0, "records": 0}
    assert again.rows == first.rows

    # One new WAL record costs one decode, not a rescan of the tail.
    service.on_sample(entity_id, attr, 650.0, 1.0)
    assert reader.read(query).rows == first.rows + [(650.0, 1.0)]
    assert decode_counts == {"chunks": 0, "records": 1}
    service.store.close()
