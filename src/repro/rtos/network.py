"""The distributed signal bus: non-blocking state messages between nodes.

Each node holds its own view of every signal (last value received). A
publication updates the producer's node immediately and other nodes after a
transport delay — the "network of distributed embedded actors communicating
by exchanging labeled messages" of the paper, at the fidelity the debugger
experiments need (who saw which value when).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ModelError
from repro.sim.kernel import Simulator


class SignalBus:
    """Per-node signal views with delayed cross-node propagation.

    Every node of the system has a view on the one bus; a cross-node
    update is an event on the kernel's simulator, ``net_delay_us`` after
    the publication (applied at once when the delay is 0).
    """

    #: cross-node transport delay in microseconds
    net_delay_us = 100

    def __init__(self, sim: Simulator, nodes: Sequence[str],
                 signal_inits: Dict[str, int]) -> None:
        self.sim = sim
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

    def view(self, node: str) -> Dict[str, int]:
        """The live signal view of *node* (not a copy).

        The DTM kernel resolves each actor's view once and latches inputs
        from it directly; everyone else should :meth:`read` or
        :meth:`snapshot`.
        """
        try:
            return self._views[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def publish(self, producer_node: str, outputs: Dict[str, int]) -> None:
        """Publish every ``signal: value`` of *outputs* now; remote nodes
        see the values after the delay.

        The producer's view takes them at once. Each remote node gets
        one update event, ``net_delay_us`` later, for all of *outputs*:
        the remote view's own ``update``, so applying it costs no Python
        call. *outputs* must not change afterwards.
        """
        self.publish_all(((producer_node, outputs),))

    def publish_all(self, publications: Sequence[Tuple[str, Dict[str, int]]]
                    ) -> None:
        """Publish each ``(producer_node, outputs)`` of *publications*
        now, in order, as :meth:`publish` would one at a time, with one
        update event per remote node for all of them.

        The values one remote node takes merge in publication order (a
        later value of a signal wins). Their separate events would all
        fall at one instant with nothing scheduled between them, so one
        ``update`` leaves every view as those events would.
        """
        views = self._views
        delay = self.net_delay_us
        remote: Dict[str, Dict[str, int]] = {}
        sent = crossed = 0
        for producer_node, outputs in publications:
            local = views.get(producer_node)
            if local is None:
                raise ModelError(f"unknown node {producer_node!r}")
            count = len(outputs)
            sent += count
            local.update(outputs)
            for node, view in views.items():
                if view is local:
                    continue
                crossed += count
                if delay == 0:
                    view.update(outputs)
                elif node in remote:
                    remote[node].update(outputs)
                else:
                    remote[node] = dict(outputs)
        self.messages_sent += sent
        self.cross_node_messages += crossed
        for node, values in remote.items():
            self.sim.schedule(delay, views[node].update, values)

    def snapshot(self, node: str) -> Dict[str, int]:
        """Copy of one node's full signal view."""
        try:
            return dict(self._views[node])
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None
