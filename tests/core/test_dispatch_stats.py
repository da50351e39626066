"""DispatchStats accounting: derivation, round-trips, merging."""

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
        doc = s.as_dict()
        assert doc["bytes_per_shard"] == round(10 / 3, 2)
        # Even a forged derived value cannot survive the round-trip.
        doc["bytes_per_shard"] = 999999.0
        back = DispatchStats.from_dict(doc)
        assert back.bytes_per_shard == 10 / 3


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(s=stats())
    def test_as_dict_survives_json(self, s):
        doc = json.loads(json.dumps(s.as_dict()))
        back = DispatchStats.from_dict(doc)
        assert back == s
        assert back.bytes_per_shard == s.bytes_per_shard

    def test_from_dict_ignores_unknown_keys(self):
        doc = DispatchStats(shards_dispatched=1).as_dict()
        doc["future_field"] = "whatever"
        # Removed fields, as older documents carry them.
        doc.update(
            arena_bytes=1008, arena_segments=1, plan_payload_bytes=7,
            worker_retries={"127.0.0.1:7421": 2},
        )
        back = DispatchStats.from_dict(doc)
        assert back.shards_dispatched == 1
        assert back.arena_bytes == 0


class TestMerge:
    @settings(max_examples=100, deadline=None)
    @given(a=stats(), b=stats())
    def test_counts_add_and_peaks_max(self, a, b):
        merged = a.merge(b)
        assert merged.shards_dispatched == (
            a.shards_dispatched + b.shards_dispatched
        )
        assert merged.bytes_dispatched == a.bytes_dispatched + b.bytes_dispatched
        assert merged.frames_sent == a.frames_sent + b.frames_sent
        assert merged.net_bytes_received == (
            a.net_bytes_received + b.net_bytes_received
        )
        assert merged.workers_lost == a.workers_lost + b.workers_lost
        assert merged.init_bytes == a.init_bytes + b.init_bytes
        assert merged.worker_peak_rss_kb == max(
            a.worker_peak_rss_kb, b.worker_peak_rss_kb
        )

    @settings(max_examples=100, deadline=None)
    @given(a=stats(), b=stats())
    def test_bytes_per_shard_is_the_true_overall_mean(self, a, b):
        merged = a.merge(b)
        total_shards = a.shards_dispatched + b.shards_dispatched
        if total_shards:
            expected = (a.bytes_dispatched + b.bytes_dispatched) / total_shards
        else:
            expected = 0.0
        assert merged.bytes_per_shard == expected

    @settings(max_examples=100, deadline=None)
    @given(a=stats(), b=stats())
    def test_retries_sum_per_address_and_transports_union(self, a, b):
        """Retries are the supervisor's (``FaultLog``), so an account
        carries none; its transports still union, in first-use order."""
        merged = a.merge(b)
        assert not hasattr(merged, "worker_retries")
        assert merged.transports == a.transports + [
            name for name in b.transports if name not in a.transports
        ]

    @settings(max_examples=50, deadline=None)
    @given(a=stats(), b=stats())
    def test_merge_then_round_trip(self, a, b):
        merged = a.merge(b)
        back = DispatchStats.from_dict(json.loads(json.dumps(merged.as_dict())))
        assert back == merged

    def test_degraded_solve_shape(self):
        socket_leg = DispatchStats(
            transports=["socket"], shards_dispatched=2, bytes_dispatched=40,
            frames_sent=6, workers_lost=2,
        )
        local_leg = DispatchStats(
            start_method="fork", transports=["local"],
            shards_dispatched=6, bytes_dispatched=60,
        )
        merged = socket_leg.merge(local_leg)
        assert merged.transports == ["socket", "local"]
        assert merged.start_method == "fork"
        assert merged.bytes_per_shard == 100 / 8
