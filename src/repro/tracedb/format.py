"""The segment format: a versioned header line, then one canonical
payload per line.

Every segment file opens with one UTF-8 JSON header line (readable with
``head -1``)::

    {"codec": "jsonl", "magic": "repro-tracedb-segment", "version": 1}

Every record is stored as its **canonical payload**: the JSON object
with sorted keys and no whitespace (:func:`encode_record`), UTF-8,
followed by ``\\n``. Canonical JSON escapes every newline inside a
string, so a payload never holds a raw one and each line is one record:
greppable and diffable. A record is encoded once, when it is first
appended; from then on the payload is the record. :func:`encode_record`
is the reference encoding: a spilled trace event is written by
:func:`encode_event` from a template, without building its dict, and
must come out as exactly ``encode_record(event.to_dict())``.

Anything that rewrites stores at the payload level (the campaign merge
in :mod:`repro.tracedb.collect`) works on the raw lines without
decoding. Canonical payloads make segment bytes a pure function of the
records: two stores built from the same events are byte-identical files,
which is what lets the fleet-collection tests compare serial and
parallel campaign stores with ``filecmp``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import BinaryIO

from repro.errors import TraceStoreError

MAGIC = "repro-tracedb-segment"
VERSION = 1
#: the record framing every segment header and store index names
CODEC = "jsonl"


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


def check_codec(name) -> None:
    """Refuse a header or index that names any framing but :data:`CODEC`."""
    if name != CODEC:
        raise TraceStoreError(
            f"unsupported segment codec {name!r} (this reader speaks "
            f"{CODEC!r})")


def write_header(fh: BinaryIO) -> int:
    """Write the one-line JSON header; returns bytes written."""
    header = json.dumps({"magic": MAGIC, "version": VERSION,
                         "codec": CODEC},
                        sort_keys=True, separators=(",", ":"))
    payload = header.encode("utf-8") + b"\n"
    fh.write(payload)
    return len(payload)


def read_header(fh: BinaryIO) -> None:
    """Read and validate the header line; *fh* is left at the first
    record."""
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
    check_codec(header.get("codec"))
