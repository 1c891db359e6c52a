"""Segment record formats: a versioned header, then framed canonical payloads.

Every segment file opens with one UTF-8 JSON header line (readable with
``head -1`` regardless of codec)::

    {"codec": "jsonl", "magic": "repro-tracedb-segment", "version": 1}

Every record is stored as its **canonical payload**: the JSON object
with sorted keys and no whitespace (:func:`encode_record`), UTF-8. A
record is encoded once, when it is first appended; from then on the
payload is the record. :func:`encode_record` is the reference encoding:
a spilled trace event is written by :func:`encode_event` from a
template, without building its dict, and must come out as exactly
``encode_record(event.to_dict())``. A codec only *frames* payloads — it
never sees a record:

* ``jsonl`` — payload + ``\\n``, one record per line. Greppable,
  diffable, the default.
* ``binary`` — a 4-byte big-endian payload length, then the payload.
  Cheaper to skip through and immune to embedded newlines.

``frame(payload)`` is the write side, ``payloads(fh)`` the read side
(raw payload bytes, undecoded). Because both codecs carry the same
payload bytes, anything that rewrites stores at the payload level (the
campaign merge in :mod:`repro.tracedb.collect`) works across codecs
without decoding. Canonical payloads make segment bytes a pure function
of the records: two stores built from the same events are byte-identical
files, which is what lets the fleet-collection tests compare serial and
parallel campaign stores with ``filecmp``.
"""

from __future__ import annotations

import json
import struct
from json.encoder import encode_basestring_ascii as _str
from typing import BinaryIO, Dict, Iterator

from repro.errors import TraceStoreError

MAGIC = "repro-tracedb-segment"
VERSION = 1

_LEN = struct.Struct(">I")


def encode_record(record: dict) -> bytes:
    """Canonical JSON bytes of *record* (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def encode_event(event) -> bytes:
    """Canonical payload of a :class:`~repro.engine.trace.TraceEvent`:
    the bytes of ``encode_record(event.to_dict())``, from a template.

    Strings go through ``encode_basestring_ascii``, the string encoder
    ``json.dumps`` uses, and fields whose type is exactly ``int`` are
    written as they are. An event with any other field type (a
    ``bool``, ``None``, a float, a ``str`` or ``int`` subclass) is
    encoded by the reference instead.
    """
    command = event.command
    path = command.path
    value = command.value
    t_target = command.t_target
    t_host = command.t_host
    state = event.engine_state
    seq = event.seq
    if (type(path) is str and type(state) is str and type(value) is int
            and type(t_target) is int and type(t_host) is int
            and type(seq) is int):
        reactions = []
        for reaction in event.reactions:
            element = reaction.element_id
            source = reaction.source_path
            detail = reaction.detail
            t_us = reaction.t_us
            if not (type(element) is str and type(source) is str
                    and type(detail) is str and type(t_us) is int):
                break
            reactions.append(
                f'{{"detail":{_str(detail)},"element":{_str(element)},'
                f'"kind":{_str(reaction.kind._name_)},"path":{_str(source)},'
                f'"t_us":{t_us}}}')
        else:
            return (f'{{"engine_state":{_str(state)},'
                    f'"kind":{_str(command.kind._name_)},'
                    f'"path":{_str(path)},"reactions":[{",".join(reactions)}],'
                    f'"seq":{seq},"t_host":{t_host},"t_target":{t_target},'
                    f'"value":{value}}}').encode()
    return encode_record(event.to_dict())


class JsonlCodec:
    """One canonical-JSON payload per line."""

    name = "jsonl"

    @staticmethod
    def frame(payload: bytes) -> bytes:
        return payload + b"\n"

    @staticmethod
    def payloads(fh: BinaryIO) -> Iterator[bytes]:
        for line in fh:
            line = line.strip()
            if line:
                yield line


class BinaryCodec:
    """Length-prefixed payloads: 4-byte big-endian length + JSON payload."""

    name = "binary"

    @staticmethod
    def frame(payload: bytes) -> bytes:
        return _LEN.pack(len(payload)) + payload

    @staticmethod
    def payloads(fh: BinaryIO) -> Iterator[bytes]:
        while True:
            prefix = fh.read(_LEN.size)
            if not prefix:
                return
            if len(prefix) < _LEN.size:
                raise TraceStoreError(
                    f"truncated length prefix ({len(prefix)} bytes) "
                    f"at segment tail")
            (length,) = _LEN.unpack(prefix)
            payload = fh.read(length)
            if len(payload) < length:
                raise TraceStoreError(
                    f"truncated record: expected {length} payload bytes, "
                    f"got {len(payload)}")
            yield payload


CODECS: Dict[str, object] = {JsonlCodec.name: JsonlCodec,
                             BinaryCodec.name: BinaryCodec}


def codec_named(name: str):
    """Look up a codec, loudly."""
    try:
        return CODECS[name]
    except KeyError:
        raise TraceStoreError(f"unknown segment codec {name!r}; "
                              f"options: {sorted(CODECS)}") from None


def write_header(fh: BinaryIO, codec_name: str) -> int:
    """Write the one-line JSON header; returns bytes written."""
    codec_named(codec_name)  # validate before committing bytes
    header = json.dumps({"magic": MAGIC, "version": VERSION,
                         "codec": codec_name},
                        sort_keys=True, separators=(",", ":"))
    payload = header.encode("utf-8") + b"\n"
    fh.write(payload)
    return len(payload)


def read_header(fh: BinaryIO):
    """Validate the header line; returns the codec class to read with."""
    line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceStoreError(f"segment header is not JSON: {exc}") from exc
    if header.get("magic") != MAGIC:
        raise TraceStoreError(
            f"not a tracedb segment (magic {header.get('magic')!r})")
    if header.get("version") != VERSION:
        raise TraceStoreError(
            f"unsupported segment version {header.get('version')!r} "
            f"(this reader speaks version {VERSION})")
    return codec_named(header.get("codec", ""))
