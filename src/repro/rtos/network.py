"""The distributed signal bus: non-blocking state messages between nodes.

Each node holds its own view of every signal (last value received). A
publication updates the producer's node immediately and other nodes after a
transport delay — the "network of distributed embedded actors communicating
by exchanging labeled messages" of the paper, at the fidelity the debugger
experiments need (who saw which value when).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ModelError
from repro.sim.kernel import Simulator


class SignalBus:
    """Per-node signal views with delayed cross-node propagation.

    Every node of the system has a view on the one bus; a cross-node
    update is an event on the kernel's simulator, ``net_delay_us`` after
    the publication (applied at once when the delay is 0).
    """

    def __init__(self, sim: Simulator, nodes: Sequence[str],
                 signal_inits: Dict[str, int], net_delay_us: int = 100) -> None:
        if net_delay_us < 0:
            raise ModelError(f"net delay must be non-negative, got {net_delay_us}")
        self.sim = sim
        self.net_delay_us = net_delay_us
        self._views: Dict[str, Dict[str, int]] = {
            node: dict(signal_inits) for node in nodes
        }
        self.messages_sent = 0
        self.cross_node_messages = 0

    def nodes(self) -> List[str]:
        """All node names with a view."""
        return list(self._views)

    def read(self, node: str, signal: str) -> int:
        """Read *signal* as currently visible on *node*."""
        try:
            return self._views[node][signal]
        except KeyError:
            raise ModelError(f"no view of signal {signal!r} on node {node!r}") from None

    def publish(self, producer_node: str, signal: str, value: int) -> None:
        """Publish a new value now; remote nodes see it after the delay."""
        if producer_node not in self._views:
            raise ModelError(f"unknown node {producer_node!r}")
        self.messages_sent += 1
        self._views[producer_node][signal] = value
        for node in self._views:
            if node == producer_node:
                continue
            self.cross_node_messages += 1
            if self.net_delay_us == 0:
                self._views[node][signal] = value
            else:
                self.sim.schedule(self.net_delay_us, self._apply, node,
                                  signal, value)

    def _apply(self, node: str, signal: str, value: int) -> None:
        self._views[node][signal] = value

    def snapshot(self, node: str) -> Dict[str, int]:
        """Copy of one node's full signal view."""
        try:
            return dict(self._views[node])
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None
