"""Explicit coverage of DebugSession's transport accounting.

Every node of a session gets its own :class:`DebugLink`
(``session.links``), and each link keeps its own books
(:meth:`DebugLink.stats`). This file pins those books for a whole
session: the totals over the node links, the attribution of passive
and active traffic to their channel labels, and (when telemetry is on)
the ``link.*`` registry series that bind them.
"""

import pytest

from repro.comdes.examples import traffic_light_system
from repro.engine.session import DebugSession
from repro.obs.runtime import disable, enable
from repro.util.timeunits import ms

COUNTERS = ("transactions", "words_read", "words_written", "frames_carried",
            "cost_us_total")


@pytest.fixture(autouse=True)
def _obs_off():
    disable()
    yield
    disable()


def passive_session():
    return DebugSession(traffic_light_system(), channel_kind="passive",
                        poll_period_us=500).setup()


def link_totals(session):
    """Each link counter summed over the session's node links."""
    rows = [link.stats() for link in session.links.values()]
    return {key: sum(row[key] for row in rows) for key in COUNTERS}


class TestSessionStats:
    def test_stats_aggregate_across_node_links(self):
        session = passive_session()
        session.run(ms(20))
        assert len(session.links) == 1
        totals = link_totals(session)
        # One scatter-read transaction per poll at 500us period (plus
        # the priming poll at start()).
        assert totals["transactions"] == ms(20) // 500 + 1
        assert totals["words_read"] > 0
        assert totals["cost_us_total"] > 0


class TestPerChannelAttribution:
    def test_passive_traffic_books_under_passive_channel(self):
        session = passive_session()
        session.run(ms(10))
        labels = {link.stats()["label"] for link in session.links.values()}
        assert labels == {"passive"}
        assert link_totals(session)["transactions"] > 0

    def test_active_traffic_books_under_active_channel(self):
        session = DebugSession(traffic_light_system(),
                               channel_kind="active").setup()
        session.run(ms(500))
        labels = {link.stats()["label"] for link in session.links.values()}
        assert labels == {"active"}
        assert link_totals(session)["frames_carried"] > 0


class TestTransportSeries:
    def test_transport_series_tracks_stats_surface(self):
        reg = enable()
        session = passive_session()
        session.run(ms(20))
        counters = reg.snapshot().counters
        totals = link_totals(session)
        for key in ("transactions", "words_read", "cost_us_total"):
            assert sum(counters[f"link.{key}"].values()) == totals[key], key
