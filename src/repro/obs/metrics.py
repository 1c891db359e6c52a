"""Metrics registry: labeled counters + canonical snapshots.

The registry is the unification layer over the stack's ad-hoc stats
surfaces: ``DebugLink.stats()`` (transaction accounting), chaos
frame-fault counters, kernel and poll books, tracedb segment I/O. Each
of those dicts stays exactly what it was — the registry *binds* them
(:meth:`MetricsRegistry.bind_stats`) and reads them once at snapshot
time, so the existing dict-returning APIs become the source of truth
for registry series without adding a single instruction to their hot
paths. Event-shaped facts counted where they happen (chaos faults,
fleet job outcomes) use a direct :class:`Counter`.

A *series* is ``(name, sorted label items)``; asking for the same
name+labels twice returns the same counter, so call sites can be
naive. Counters are plain-slot objects — ``inc`` is one integer add.

Snapshots (:class:`MetricsSnapshot`) are picklable plain data with a
canonical, sorted JSON-able form (:meth:`MetricsSnapshot.to_dict`).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone counter; one series of one registry."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class MetricsSnapshot:
    """Picklable point-in-time registry state.

    ``counters`` maps each series name to ``{labels_key: int}``.
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, Dict[LabelsKey, int]] = {}

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-able form: every level sorted."""
        return {
            "counters": {
                name: [{"labels": dict(key), "value": int(value)}
                       for key, value in sorted(self.counters[name].items())]
                for name in sorted(self.counters)},
        }


class _Binding:
    """One bound stats surface, with its labels key kept until the label
    values change and its series names made once per stat."""

    __slots__ = ("ident", "anchor", "prefix", "stats_fn", "labels",
                 "label_keys", "_label_items", "_key", "_names")

    def __init__(self, ident: Tuple[str, int], anchor: object, prefix: str,
                 stats_fn: Callable[[], Mapping[str, Any]],
                 labels: Dict[str, Any], label_keys: Tuple[str, ...]) -> None:
        self.ident = ident
        self.anchor = anchor
        self.prefix = prefix
        self.stats_fn = stats_fn
        self.labels = labels
        self.label_keys = label_keys
        self._label_items: Optional[Tuple[Tuple[str, Any], ...]] = None
        self._key: LabelsKey = _labels_key(labels)
        self._names: Dict[str, str] = {}

    def fold_into(self, counters: Dict[str, Dict[LabelsKey, int]]) -> None:
        """Read the stats dict once and add every numeric value to its
        ``{prefix}.{stat}`` counter series in *counters*."""
        stats = self.stats_fn()
        label_keys = self.label_keys
        if label_keys:
            items = tuple([(k, stats[k]) for k in label_keys if k in stats])
            if items != self._label_items:
                labels = dict(self.labels)
                labels.update(items)
                self._label_items = items
                self._key = _labels_key(labels)
        key = self._key
        names = self._names
        for stat, value in stats.items():
            if stat in label_keys:
                continue
            if value.__class__ is not int:
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                value = int(value)
            series = names.get(stat)
            if series is None:
                series = names[stat] = f"{self.prefix}.{stat}"
            table = counters.get(series)
            if table is None:
                table = counters[series] = {}
            table[key] = table.get(key, 0) + value


def _owner_ref(anchor: object) -> Callable[[], object]:
    """A weak reference to *anchor*, or a strong one when it cannot be
    weakly referenced (then it stays alive, as a live binding's does)."""
    try:
        return weakref.ref(anchor)
    except TypeError:
        return lambda: anchor


class MetricsRegistry:
    """Get-or-create instrument registry with late-bound stats views.

    Direct counters (:meth:`counter`) are for event-shaped facts
    counted where they happen. ``bind_stats`` is for
    components that already keep books — the bound dict is read once
    per :meth:`snapshot` and folded into counter series named
    ``{prefix}.{key}``, so the existing stats surface *is* the registry
    series and the component's hot path is untouched.

    Bindings made for one unit of work (a campaign job) are released
    when it ends (:meth:`binding_mark`, :meth:`release_bindings`): their
    final values fold into fixed *retired* series, so snapshot totals do
    not move, and the registry stops holding the finished kernels, links
    and channels alive.
    """

    #: released owners remembered for de-duplication before a prune
    _RETIRED_OWNERS_PRUNE = 256

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._bound: List[_Binding] = []
        # live bindings by (prefix, id(anchor)); a binding pins its
        # anchor, because ids are only unique among *live* objects
        self._bound_owners: Dict[Tuple[str, int], _Binding] = {}
        # released bindings by the same ident, held weakly: re-binding
        # a released owner that is still alive stays a no-op
        self._retired_owners: Dict[Tuple[str, int],
                                   Callable[[], object]] = {}
        # released bindings' final rows, summed per series
        self._retired: Dict[str, Dict[LabelsKey, int]] = {}

    # -- direct counters ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labels_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    # -- late-bound stats surfaces ----------------------------------------

    def bind_stats(self, prefix: str,
                   stats_fn: Callable[[], Mapping[str, Any]],
                   owner: Optional[object] = None,
                   label_keys: Tuple[str, ...] = (),
                   **labels: Any) -> None:
        """Register *stats_fn* as a lazy series source under *prefix*.

        At snapshot time ``stats_fn()`` is called and every numeric
        value folds into the counter series ``{prefix}.{key}`` with the
        given static *labels* (non-numeric values are skipped).
        *label_keys* names stats-dict entries that become labels
        instead — e.g. ``("kind", "label")`` for link stats, so the
        dict's own identity fields tag its series, read late enough to
        see wrapper/channel reassignment. Multiple bindings landing on
        the same series sum. Re-binding the same *owner* (default: the
        function object) under the same prefix is a no-op, so
        construction-time binding is idempotent — also after the
        binding was released, while the owner lives.
        """
        anchor = owner if owner is not None else stats_fn
        ident = (prefix, id(anchor))
        if ident in self._bound_owners:
            return
        retired = self._retired_owners.pop(ident, None)
        if retired is not None and retired() is anchor:
            self._retired_owners[ident] = retired
            return
        binding = _Binding(ident, anchor, prefix, stats_fn, dict(labels),
                           tuple(label_keys))
        self._bound_owners[ident] = binding
        self._bound.append(binding)

    def binding_mark(self) -> int:
        """A mark for :meth:`release_bindings`: bindings made after it
        belong to the work that starts now."""
        return len(self._bound)

    def release_bindings(self, mark: int = 0) -> int:
        """Release every binding made since *mark*; returns the count.

        Each binding is read one last time and its values fold into
        the retired series, so every snapshot after this reads the same
        totals as if the binding were still there (its owner's books
        must be final: the work that made it has ended).
        """
        released = self._bound[mark:]
        del self._bound[mark:]
        retired_owners = self._retired_owners
        for binding in released:
            binding.fold_into(self._retired)
            del self._bound_owners[binding.ident]
            retired_owners[binding.ident] = _owner_ref(binding.anchor)
        if len(retired_owners) > self._RETIRED_OWNERS_PRUNE:
            for ident in [i for i, ref in retired_owners.items()
                          if ref() is None]:
                del retired_owners[ident]
        return len(released)

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        snap = MetricsSnapshot()
        counters = snap.counters = {
            name: dict(table) for name, table in self._retired.items()}
        for (name, key), c in self._counters.items():
            table = counters.setdefault(name, {})
            table[key] = table.get(key, 0) + c.value
        for binding in self._bound:
            binding.fold_into(counters)
        return snap

