"""Channel Access datagram codec for the UDP name-resolution phase.

Covers just enough of the public CA wire format to generate and parse
search request/response traffic on port 5064: the 16-byte big-endian
message header, the version message, and the search pair. The relay
carries only this phase; the data circuit is TCP and never passes through
it, so the simulated circuit has no wire form: the network hands the IOC a
PV name, and the client the PV's value, as they are.

This module alone knows the header layout. ``search_messages`` gives each
search message's header fields, in one ``struct`` read for a datagram that
carries one name; the relay writes IDs back with ``set_request_ids`` and
``set_response_id``, and the finders that the IOC and the client call build
their records from the same answer.

Messages are plain records (``NamedTuple``); a malformed datagram raises a
``CaWireError`` on decode, its message naming the fault, and a name a search
cannot carry a ``ValueError``. The finders build records positionally
(``packet.new_record``), each encoder packs its datagram with one
``struct.Struct``, and callers look both finders up here per call.

Header layout (all big-endian):

    offset  size  field
    0       2     command
    2       2     payload_size   (multiple of 8)
    4       2     data_type
    6       2     data_count
    8       4     param1
    12      4     param2

Captures from real CA clients use the same layout, so traffic recorded on
port 5064 can be fed through find_search_requests and find_search_response
for manual inspection.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from .packet import int_to_ip, ip_to_int, new_record

CA_HEADER_LEN = 16
CA_SERVER_PORT = 5064
DEFAULT_MINOR_VERSION = 13
MAX_PV_NAME = 60

CMD_VERSION = 0
CMD_SEARCH = 6

USE_PACKET_SOURCE = 0xFFFFFFFF

_HDR = struct.Struct(">HHHHII")
# A version message and one search with a ``size``-byte payload, by size; ``s`` pads the name with NULs.
_SEARCH_DATAGRAMS = {size: struct.Struct(f">HHHHIIHHHHII{size}s") for size in range(8, MAX_PV_NAME + 8, 8)}
# A version message and one search response, whose payload is the minor version padded to 8 bytes.
_SEARCH_RESPONSE_DATAGRAM = struct.Struct(">HHHHIIHHHHIIH6x")


class CaWireError(Exception):
    """A malformed CA datagram; the message names the fault."""


class ReplyFlag(enum.IntEnum):
    DONT_REPLY = 5
    DO_REPLY = 10


class SearchRequest(NamedTuple):
    pv_name: str
    search_id: int
    reply_flag: ReplyFlag = ReplyFlag.DONT_REPLY
    minor_version: int = DEFAULT_MINOR_VERSION


class SearchResponse(NamedTuple):
    server_port: int
    search_id: int
    server_minor_version: int = DEFAULT_MINOR_VERSION
    # None means "use the packet's source address" (param1 = 0xFFFFFFFF).
    server_address: str | None = None


def check_pv_name(name: str) -> str:
    """The name, if a search can carry it: non-empty, NUL-free ASCII of at most ``MAX_PV_NAME`` characters."""
    if not name or "\x00" in name or not name.isascii():
        raise ValueError(f"PV name must be non-empty, NUL-free ASCII, got {name!r}")
    if len(name) > MAX_PV_NAME:
        raise ValueError(f"{len(name)} characters exceeds the {MAX_PV_NAME} limit")
    return name


def encode_search_datagram(req: SearchRequest) -> bytes:
    """Version message followed by one search request message.

    The search payload is the PV name, NUL-terminated and NUL-padded to a
    multiple of 8, so a name of up to 7 characters yields a 40-byte datagram
    and typical 10/11-character names yield 48 bytes.
    """
    pv_name, search_id, reply_flag, minor_version = req
    name = check_pv_name(pv_name).encode("ascii")
    size = (len(name) + 8) & ~7  # the name, its NUL, and padding to a multiple of 8
    return _SEARCH_DATAGRAMS[size].pack(
        CMD_VERSION, 0, 0, minor_version, 0, 0, CMD_SEARCH, size, reply_flag, minor_version, search_id, search_id, name
    )


def encode_search_response_datagram(resp: SearchResponse) -> bytes:
    """Version message plus search response; always exactly 40 bytes."""
    server_port, search_id, minor_version, server_address = resp
    param1 = USE_PACKET_SOURCE if server_address is None else ip_to_int(server_address)
    return _SEARCH_RESPONSE_DATAGRAM.pack(
        CMD_VERSION, 0, 0, minor_version, 0, 0, CMD_SEARCH, 8, server_port, 0, param1, search_id, minor_version
    )


# Requests carry the reply flag in data_type; responses carry the server port
# there, which never collides with the two flag codes.
REQUEST_CODES = {int(flag): flag for flag in ReplyFlag}

# A datagram in the one-name layout: a message with no payload, then one search header.
_unpack_bare_then_search = struct.Struct(">HH12xHHHHII").unpack_from


def search_messages(data: bytes) -> tuple | list:
    """(offset, data_type, data_count, param1, param2, payload_size) of each search message, offset being its
    header's. The one-name layout, with the search's payload ending the datagram, takes one ``struct`` read; any
    other datagram is walked and checked whole, so a malformed trailer raises even after a valid message."""
    end = len(data)
    if end >= 2 * CA_HEADER_LEN:
        first, first_size, command, size, data_type, data_count, param1, param2 = _unpack_bare_then_search(data)
        if command == CMD_SEARCH and first != CMD_SEARCH and not first_size and size == end - 32 and not size % 8:
            return ((CA_HEADER_LEN, data_type, data_count, param1, param2, size),)  # 32 bytes: the two headers
    found = []
    offset = 0
    while offset < end:
        if end - offset < CA_HEADER_LEN:
            raise CaWireError(f"{end - offset} bytes left, header needs {CA_HEADER_LEN}")
        command, size, data_type, data_count, param1, param2 = _HDR.unpack_from(data, offset)
        if size % 8:
            raise CaWireError(f"payload_size {size} not a multiple of 8")
        if end - offset - CA_HEADER_LEN < size:
            raise CaWireError(f"payload_size {size} but only {end - offset - CA_HEADER_LEN} bytes remain")
        if command == CMD_SEARCH:
            found.append((offset, data_type, data_count, param1, param2, size))
        offset += CA_HEADER_LEN + size
    return found


def set_request_ids(buf: bytearray, offset: int, search_id: int) -> None:
    """Write ``search_id`` into both ID fields of the search request whose header starts at ``offset``."""
    struct.pack_into(">II", buf, offset + 8, search_id, search_id)


def set_response_id(buf: bytearray, offset: int, search_id: int) -> None:
    """Write ``search_id`` into param2 of the search response whose header starts at ``offset``."""
    struct.pack_into(">I", buf, offset + 12, search_id)


# The last datagram find_search_requests parsed, and its requests. Every IOC
# on a segment is handed the same broadcast object, and bytes are immutable,
# so identity is a safe key and the kept parse never changes a result; a
# malformed datagram is never kept.
_last_parsed: tuple[object, tuple[SearchRequest, ...]] = (None, ())


def find_search_requests(data: bytes) -> list[SearchRequest]:
    """All search requests in a datagram, in order."""
    global _last_parsed
    if data is _last_parsed[0]:
        return list(_last_parsed[1])
    requests = []
    for offset, data_type, minor, search_id, _, size in search_messages(data):
        flag = REQUEST_CODES.get(data_type)
        if flag is None:
            continue
        start = offset + CA_HEADER_LEN
        try:
            name = data[start : start + size].split(b"\x00", 1)[0].decode("ascii")
        except UnicodeDecodeError as exc:
            raise CaWireError(f"search name is not ASCII: {exc}") from exc
        requests.append(new_record(SearchRequest, (name, search_id, flag, minor)))
    if type(data) is bytes:
        _last_parsed = (data, tuple(requests))
    return requests


def find_search_response(data: bytes) -> SearchResponse | None:
    """The first search response in a datagram, or None."""
    for offset, server_port, _, param1, search_id, size in search_messages(data):
        if server_port not in REQUEST_CODES:
            minor = struct.unpack_from(">H", data, offset + CA_HEADER_LEN)[0] if size else 0
            address = None if param1 == USE_PACKET_SOURCE else int_to_ip(param1)
            return new_record(SearchResponse, (server_port, search_id, minor, address))
    return None
