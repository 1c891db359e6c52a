"""A minimal synchronous publish/subscribe event bus.

Used to decouple the debugger engine from observers (trace recorder,
animation capture, requirement monitors) without threading.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

Handler = Callable[..., None]


class EventBus:
    """Synchronous topic-based pub/sub.

    Handlers are invoked in subscription order, on the publisher's stack.
    A handler raising propagates to the publisher — errors should never pass
    silently in a debugger framework.

    Each topic's handlers are an immutable tuple replaced on (un)subscribe,
    so a publish iterates the set current at its start without copying it,
    and a handler (un)subscribing mid-publish affects only later publishes.

    :attr:`topics` is the live ``topic -> handlers`` table, for
    publishers on a hot path: ``if bus.topics.get(topic)`` skips building
    a payload nobody listens to. It stays the same dict object for the
    bus's lifetime (:meth:`clear` empties it in place), so a publisher
    may hold on to it; only the bus's own methods may change it.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Tuple[Handler, ...]] = {}
        #: the live topic -> handlers table (read-only for callers)
        self.topics = self._handlers
        self._published: int = 0

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Register *handler* for *topic*."""
        self._handlers[topic] = self._handlers.get(topic, ()) + (handler,)

    def unsubscribe(self, topic: str, handler: Handler) -> None:
        """Remove *handler* from *topic*; raises ValueError if absent."""
        handlers = list(self._handlers.get(topic, ()))
        handlers.remove(handler)
        self._handlers[topic] = tuple(handlers)

    def clear(self) -> None:
        """Unsubscribe every handler of every topic."""
        self._handlers.clear()

    def publish(self, topic: str, **payload: Any) -> int:
        """Invoke every handler subscribed to *topic*; return handler count."""
        self._published += 1
        handlers = self._handlers.get(topic, ())
        for handler in handlers:
            handler(**payload)
        return len(handlers)

    def subscriber_count(self, topic: str) -> int:
        """Number of handlers currently subscribed to *topic*."""
        return len(self._handlers.get(topic, ()))

    @property
    def published_count(self) -> int:
        """Total number of publish calls (all topics)."""
        return self._published
