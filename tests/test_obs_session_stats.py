"""Explicit coverage of DebugSession's transport accounting.

``DebugSession.transport_stats()`` aggregates every per-node link's
:meth:`DebugLink.stats` into cross-channel totals plus a per-label
``channels`` breakdown. This file pins that surface: the key set, the
aggregation across node links, the attribution of passive and active
traffic to their channel labels, and (when telemetry is on) the
``transport.*`` registry series that bind it.
"""

import pytest

from repro.comdes.examples import traffic_light_system
from repro.engine.session import DebugSession
from repro.obs import disable, enable
from repro.util.timeunits import ms

#: the key set of transport_stats(): link counters + structure
TOTAL_KEYS = {
    "transactions", "words_read", "words_written", "frames_carried",
    "cost_us_total",              # link accounting
    "links", "channels",          # structure
}
CHANNEL_ROW_KEYS = TOTAL_KEYS - {"channels"}


@pytest.fixture(autouse=True)
def _obs_off():
    disable()
    yield
    disable()


def passive_session():
    return DebugSession(traffic_light_system(), channel_kind="passive",
                        poll_period_us=500).setup()


class TestMergedKeySet:
    def test_total_key_set_is_the_merged_contract(self):
        session = passive_session()
        session.run(ms(20))
        stats = session.transport_stats()
        assert set(stats) == TOTAL_KEYS
        for row in stats["channels"].values():
            assert set(row) == CHANNEL_ROW_KEYS


class TestSessionStats:
    def test_stats_aggregate_across_node_links(self):
        session = passive_session()
        session.run(ms(20))
        stats = session.transport_stats()
        assert stats["links"] == 1
        # One scatter-read transaction per poll at 500us period (plus
        # the priming poll at start()).
        assert stats["transactions"] == ms(20) // 500 + 1
        assert stats["words_read"] > 0
        assert stats["cost_us_total"] > 0


class TestPerChannelAttribution:
    def test_passive_traffic_books_under_passive_channel(self):
        session = passive_session()
        session.run(ms(10))
        stats = session.transport_stats()
        assert set(stats["channels"]) == {"passive"}
        row = stats["channels"]["passive"]
        assert row["links"] == 1
        assert row["transactions"] == stats["transactions"]
        assert row["cost_us_total"] == stats["cost_us_total"]

    def test_active_traffic_books_under_active_channel(self):
        session = DebugSession(traffic_light_system(),
                               channel_kind="active").setup()
        session.run(ms(500))
        stats = session.transport_stats()
        assert set(stats["channels"]) == {"active"}
        assert stats["channels"]["active"]["frames_carried"] > 0


class TestTransportSeries:
    def test_transport_series_tracks_stats_surface(self):
        reg, _ = enable()
        session = passive_session()
        session.run(ms(20))
        snap = reg.snapshot()
        stats = session.transport_stats()
        for key in ("transactions", "words_read", "cost_us_total"):
            assert snap.counter_total(f"transport.{key}") == stats[key], key
