"""DispatchStats accounting: the derived mean and the JSON snapshot."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transport import DispatchStats


@st.composite
def stats(draw):
    counts = st.integers(min_value=0, max_value=1 << 40)
    return DispatchStats(
        start_method=draw(st.sampled_from(["", "fork", "spawn"])),
        shards_dispatched=draw(counts),
        bytes_dispatched=draw(counts),
        init_bytes=draw(counts),
        worker_peak_rss_kb=draw(counts),
        transports=draw(
            st.lists(
                st.sampled_from(["local", "socket"]), max_size=2, unique=True
            )
        ),
        frames_sent=draw(counts),
        frames_received=draw(counts),
        net_bytes_sent=draw(counts),
        net_bytes_received=draw(counts),
        workers_lost=draw(st.integers(0, 16)),
        duplicate_results=draw(st.integers(0, 16)),
    )


class TestBytesPerShard:
    def test_zero_shards_divides_to_zero(self):
        assert DispatchStats(bytes_dispatched=100).bytes_per_shard == 0.0

    def test_mean_is_exact(self):
        s = DispatchStats(shards_dispatched=3, bytes_dispatched=10)
        assert s.bytes_per_shard == 10 / 3

    def test_serialized_copy_is_rounded_but_not_trusted(self):
        s = DispatchStats(shards_dispatched=3, bytes_dispatched=10)
        assert s.as_dict()["bytes_per_shard"] == round(10 / 3, 2)
        # Only the snapshot is rounded; the account keeps the exact mean.
        assert s.bytes_per_shard == 10 / 3


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(s=stats())
    def test_as_dict_survives_json(self, s):
        doc = s.as_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["bytes_per_shard"] == round(s.bytes_per_shard, 2)
