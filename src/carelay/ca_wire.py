"""Channel Access datagram codec for the UDP name-resolution phase.

Covers just enough of the public CA wire format to generate and parse
search request/response traffic on port 5064: the 16-byte big-endian
message header, the version message, and the search pair. The relay
carries only this phase; the data circuit is TCP and never passes through
it, so the ``ValueExchange`` records of the simulated circuit have no wire
form: the network hands them to the IOC as they are.

Messages are plain records (``NamedTuple``); a malformed datagram raises a
``CaWireError`` on decode. The finders build records positionally
(``new_record``, that is ``tuple.__new__``), each encoder packs its datagram
with one ``struct.Struct``, and callers look both finders up here per call.

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

from .packet import int_to_ip, ip_to_int

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

new_record = tuple.__new__  # new_record(SearchRequest, fields): a record from all its fields, without its ``__new__``


class CaWireError(Exception):
    """Base class for CA codec failures."""


class Truncated(CaWireError):
    pass


class MisalignedPayload(CaWireError):
    pass


class NameTooLong(CaWireError, ValueError):
    pass


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
        raise NameTooLong(f"{len(name)} characters exceeds the {MAX_PV_NAME} limit")
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
_REPLY_FLAGS = {int(flag): flag for flag in ReplyFlag}


def _search_messages(data: bytes) -> list[tuple]:
    """Each search message as (reply_flag, data_type, data_count, param1,
    param2, payload), reply_flag None for a response. Checks the whole
    datagram first, so a malformed trailer raises even after a valid message.
    """
    found = []
    offset = 0
    end = len(data)
    while offset < end:
        if end - offset < CA_HEADER_LEN:
            raise Truncated(f"{end - offset} bytes left, header needs {CA_HEADER_LEN}")
        command, size, data_type, data_count, param1, param2 = _HDR.unpack_from(data, offset)
        if size % 8:
            raise MisalignedPayload(f"payload_size {size} not a multiple of 8")
        offset += CA_HEADER_LEN
        if end - offset < size:
            raise Truncated(f"payload_size {size} but only {end - offset} bytes remain")
        if command == CMD_SEARCH:
            flag = _REPLY_FLAGS.get(data_type)
            found.append((flag, data_type, data_count, param1, param2, data[offset : offset + size]))
        offset += size
    return found


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
    for flag, _, minor, search_id, _, payload in _search_messages(data):
        if flag is None:
            continue
        try:
            name = payload.split(b"\x00", 1)[0].decode("ascii")
        except UnicodeDecodeError as exc:
            raise CaWireError(f"search name is not ASCII: {exc}") from exc
        requests.append(new_record(SearchRequest, (name, search_id, flag, minor)))
    if type(data) is bytes:
        _last_parsed = (data, tuple(requests))
    return requests


def find_search_response(data: bytes) -> SearchResponse | None:
    """The first search response in a datagram, or None."""
    for flag, server_port, _, param1, search_id, payload in _search_messages(data):
        if flag is None:
            minor = struct.unpack_from(">H", payload)[0] if payload else 0
            address = None if param1 == USE_PACKET_SOURCE else int_to_ip(param1)
            return new_record(SearchResponse, (server_port, search_id, minor, address))
    return None


class ValueExchangeKind(enum.IntEnum):
    READ_REQUEST = 1
    READ_REPLY = 2
    WRITE_REQUEST = 3
    WRITE_ACK = 4


class ValueExchange(NamedTuple):
    """Simplified fetch/put message: the request and the reply of the simulated data circuit."""

    kind: ValueExchangeKind
    pv_name: str
    sequence: int
    value: float | None = None
