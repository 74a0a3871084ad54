"""MRT-flavoured binary log codec.

The Routing Arbiter archived its BGP packet logs in the Multithreaded
Routing Toolkit (MRT) format; the paper's analysis pipeline decoded
those files offline.  We implement the same architecture: the collector
serializes :class:`~repro.collector.record.UpdateRecord` streams into a
binary format closely modelled on MRT's ``BGP4MP_MESSAGE`` framing —
a per-record header ``(timestamp seconds, microseconds, peer AS, peer
IP)`` followed by an actual RFC 4271 wire-encoded BGP UPDATE — and the
analysis pipeline reads them back.

Going through real BGP wire encoding is deliberate: it exercises the
:mod:`repro.bgp.wire` codec on every logged record, just as the paper's
tools re-parsed real packets.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator

from ..bgp.messages import UpdateMessage
from ..bgp.wire import WireError, decode_message, encode_message
from .record import UpdateKind, UpdateRecord, flatten_update

__all__ = [
    "MrtError",
    "write_records",
    "read_records",
    "MAGIC",
]

#: File magic: identifies our MRT-flavoured update logs.
MAGIC = b"RRIL1\x00"

_RECORD_HEADER = struct.Struct(">IIHIH")  # secs, usecs, peer_asn, peer_ip, length


class MrtError(ValueError):
    """Raised on malformed log data."""


def _split_time(time: float) -> tuple:
    seconds = int(time)
    microseconds = int(round((time - seconds) * 1_000_000))
    if microseconds == 1_000_000:  # rounding spill-over
        seconds += 1
        microseconds = 0
    return seconds, microseconds


def write_records(
    stream: BinaryIO, records: Iterable[UpdateRecord]
) -> int:
    """Serialize ``records`` to ``stream``; returns the record count.

    Each record is framed individually (one NLRI per UPDATE) so the
    reader can reproduce exact per-record timestamps; batching multiple
    prefixes into shared UPDATEs is the transmitting router's business,
    not the archive's.
    """
    stream.write(MAGIC)
    count = 0
    for record in records:
        if record.kind is UpdateKind.ANNOUNCE:
            message = UpdateMessage(
                announced=(record.prefix,), attributes=record.attributes
            )
        else:
            message = UpdateMessage(withdrawn=(record.prefix,))
        payload = encode_message(message)
        seconds, microseconds = _split_time(record.time)
        stream.write(
            _RECORD_HEADER.pack(
                seconds,
                microseconds,
                record.peer_asn,
                record.peer_id,
                len(payload),
            )
        )
        stream.write(payload)
        count += 1
    return count


def read_records(stream: BinaryIO) -> Iterator[UpdateRecord]:
    """Deserialize records from ``stream`` (reverse of
    :func:`write_records`)."""
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise MrtError(f"bad magic {magic!r}")
    while True:
        header = stream.read(_RECORD_HEADER.size)
        if not header:
            return
        if len(header) != _RECORD_HEADER.size:
            raise MrtError("truncated record header")
        seconds, microseconds, peer_asn, peer_ip, length = (
            _RECORD_HEADER.unpack(header)
        )
        payload = stream.read(length)
        if len(payload) != length:
            raise MrtError("truncated record payload")
        try:
            message, consumed = decode_message(payload)
        except WireError as exc:
            raise MrtError(f"bad BGP payload: {exc}") from exc
        if consumed != length or not isinstance(message, UpdateMessage):
            raise MrtError("record payload is not a single BGP UPDATE")
        time = seconds + microseconds / 1_000_000
        records = flatten_update(time, peer_ip, peer_asn, message)
        if len(records) != 1:
            raise MrtError("archive records must carry exactly one prefix")
        yield records[0]
