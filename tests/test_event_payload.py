"""A spilled trace event's template payload equals the reference encoding.

:func:`repro.tracedb.format.encode_event` writes a
:class:`~repro.engine.trace.TraceEvent`'s canonical payload from a
template; :func:`~repro.tracedb.format.encode_record` over ``to_dict()``
is the reference. The properties draw commands and reactions with
non-ASCII text, lone surrogates, quotes, backslashes and control
characters, ints far outside 32 bits, and ``bool``, ``None`` and float
fields (which take the reference path), and require the same bytes.
The store's ``index.json`` writer, which avoids the pure-Python indented
encoder, is checked against ``json.dumps(indent=2)`` too, and it and the
checkpoint writer must leave no cyclic garbage behind.
"""

from __future__ import annotations

import filecmp
import gc
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.protocol import Command, CommandKind
from repro.engine.trace import ExecutionTrace, TraceEvent
from repro.errors import TraceStoreError
from repro.gdm.reactions import ReactionKind, ReactionRecord
from repro.tracedb.format import encode_event, encode_record
from repro.tracedb.store import TraceStore

#: every code point, surrogates included, with the ones JSON escapes
#: drawn often
text = st.text(st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\U0001f600'),
))
ints = st.one_of(st.integers(), st.sampled_from(
    [0, -1, 2 ** 31, -2 ** 31 - 1, 2 ** 63, -2 ** 64, 10 ** 30]))
others = st.one_of(st.booleans(), st.none(),
                   st.floats(allow_nan=True, allow_infinity=True))
#: a field that is usually of its own type and sometimes of another
str_field = st.one_of(text, text, text, others, ints)
int_field = st.one_of(ints, ints, ints, others)


def make_event(seq, kind, path, value, t_target, t_host, state, reactions):
    command = Command(kind, "", 0)
    # assigned after construction so None and bool fields survive
    command.path, command.value = path, value
    command.t_target, command.t_host = t_target, t_host
    return TraceEvent(seq, command, reactions, state)


def make_reaction(kind, element, source, detail, t_us):
    return ReactionRecord(kind, element, source, detail, t_us)


def events(str_values, int_values):
    reactions = st.lists(st.builds(
        make_reaction, st.sampled_from(list(ReactionKind)), str_values,
        str_values, str_values, int_values), max_size=4)
    return st.builds(make_event, int_values,
                     st.sampled_from(list(CommandKind)), str_values,
                     int_values, int_values, int_values, str_values,
                     reactions)


class NoDict(TraceEvent):
    """An event whose ``to_dict`` raises: only the template can encode it."""

    __slots__ = ()

    def to_dict(self):
        raise AssertionError("the template fell back to the reference")


class TestTemplateEqualsReference:
    @settings(max_examples=250, deadline=None)
    @given(events(str_field, int_field))
    def test_any_field_types(self, event):
        assert encode_event(event) == encode_record(event.to_dict())

    @settings(max_examples=200, deadline=None)
    @given(events(text, ints))
    def test_exact_str_and_int_fields_take_the_template(self, event):
        reference = encode_record(TraceEvent.to_dict(event))
        event.__class__ = NoDict
        assert encode_event(event) == reference

    def test_non_ascii_is_escaped_as_json_dumps_does(self):
        event = make_event(3, CommandKind.USER, 'a"\\é\ud800\n', -2 ** 40,
                           0, 7, "REACTING",
                           [make_reaction(ReactionKind.PULSE, "e€",
                                          "p", "\x00", 2 ** 33)])
        payload = encode_event(event)
        assert payload == encode_record(event.to_dict())
        assert payload.isascii()
        assert b'"path":"a\\"\\\\\\u00e9\\ud800\\n"' in payload


class TestStoreAppend:
    def test_spilled_events_write_the_dict_store_bytes(self, tmp_path):
        """A store fed events by a spilling trace and one fed the same
        events' reference payloads (``encode_record`` of their dicts)
        are byte-identical files."""
        reactions = [make_reaction(ReactionKind.HIGHLIGHT, "elem/1",
                                   "state:a.b", "highlight", 5)]
        commands = [Command(CommandKind.STATE_ENTER, f"state:m.é{i}",
                            i - 3, t_target=i, t_host=i + 50)
                    for i in range(40)]
        spilled = TraceStore(str(tmp_path / "events"), segment_events=16)
        trace = ExecutionTrace(spill=spilled)
        dicts = TraceStore(str(tmp_path / "dicts"), segment_events=16)
        for i, command in enumerate(commands):
            event = trace.record(command, reactions if i % 3 else [],
                                 "REACTING")
            assert event.seq == i == dicts.next_seq
            dicts._append_payload(i, encode_record(event.to_dict()))
        spilled.close()
        dicts.close()
        names = sorted(os.listdir(tmp_path / "events"))
        assert names == sorted(os.listdir(tmp_path / "dicts"))
        for name in names:
            if name != "ckpt":
                assert filecmp.cmp(tmp_path / "events" / name,
                                   tmp_path / "dicts" / name, shallow=False)
        assert list(spilled.events()) == [event.to_dict() for event in
                                          map(TraceEvent.from_dict,
                                              dicts.events())]

    def test_event_out_of_order_is_refused(self, tmp_path):
        store = TraceStore(str(tmp_path / "s"))
        event = TraceEvent(1, Command(CommandKind.USER, "x", 0), [], "WAITING")
        with pytest.raises(TraceStoreError, match="out-of-order"):
            store.append(event)
        assert store.event_count == 0


class TestIndexWriter:
    def test_index_bytes_are_the_indented_dump(self, tmp_path):
        """``index.json`` keeps the bytes of ``json.dump(indent=2,
        sort_keys=True)`` plus a newline, segment and checkpoint rows
        included."""
        store = TraceStore(str(tmp_path / "s"), segment_events=4,
                           checkpoint_every=3)
        for i in range(10):
            store.append(TraceEvent(i, Command(CommandKind.USER, "é", i),
                                    [], "WAITING"))
            if store.wants_checkpoint(i):
                store.add_checkpoint(i, i, {"state": [i]})
        store.close()
        with open(tmp_path / "s" / "index.json", encoding="utf-8") as fh:
            written = fh.read()
        assert written == json.dumps(json.loads(written), indent=2,
                                     sort_keys=True) + "\n"
        assert '"segments": [\n    {\n      "byte_size":' in written
        assert '"checkpoint_every": 3' in written

    def test_index_and_checkpoint_writes_leave_no_cyclic_garbage(
            self, tmp_path):
        store = TraceStore(str(tmp_path / "s"), segment_events=2)
        for i in range(5):
            store.append(TraceEvent(i, Command(CommandKind.USER, "x", i),
                                    [], "WAITING"))
        gc.collect()
        gc.disable()
        try:
            store.add_checkpoint(4, 4, {"state": [1, {"a": None}]})
            store.flush()
            store.close()
            assert gc.collect() == 0
        finally:
            gc.enable()
