"""The generator's own byte templates and an independent IPv4/UDP oracle.

Nothing here imports carelay: the load generator builds its datagrams from
fixed templates and checks relayed frames with its own header parser, so a
fault in ``carelay.packet`` or ``carelay.ca_wire`` cannot hide itself.

Channel Access layout used by the templates (16-byte big-endian header
``command, payload_size, data_type, data_count, param1, param2``): a version
message, then one search message per name. The first search carries the
search id in param1 and param2, so the id of a request and of its response
both sit at byte offset 28.
"""

from __future__ import annotations

import random
import struct

CA_HDR = struct.Struct(">HHHHII")
SEARCH_ID = struct.Struct(">I")
SEARCH_ID_OFFSET = 28
CMD_VERSION = 0
CMD_SEARCH = 6
DONT_REPLY = 5
MINOR_VERSION = 13
USE_PACKET_SOURCE = 0xFFFFFFFF
RESPONSE_SERVER_PORT = 5901

# A batched datagram packs this many names, the size CA clients reach when
# they search for many channels at once after an IOC restart.
BATCH_NAMES = 40

IP_HDR = struct.Struct("!BBHHHBBH4s4s")
UDP_HDR = struct.Struct("!HHHH")
PSEUDO = struct.Struct("!4s4sBBH")
UDP_PROTO = 17


def _version() -> bytes:
    return CA_HDR.pack(CMD_VERSION, 0, 0, MINOR_VERSION, 0, 0)


def _search(name: str) -> bytes:
    raw = name.encode("ascii") + b"\x00"
    raw += b"\x00" * (-len(raw) % 8)
    return CA_HDR.pack(CMD_SEARCH, len(raw), DONT_REPLY, MINOR_VERSION, 0, 0) + raw


def random_name(rng: random.Random) -> str:
    """A 15-character PV name; with its NUL it pads to 16 bytes."""
    return "PV:%03d:%08X" % (rng.randrange(1000), rng.getrandbits(32))


def search_template(rng: random.Random, names: int = 1) -> bytes:
    """Search datagram for ``names`` random names: 48 B for one, 1296 B for 40."""
    return _version() + b"".join(_search(random_name(rng)) for _ in range(names))


def with_search_id(template: bytes, search_id: int) -> bytes:
    """Template with the first search's id fields set to ``search_id``."""
    ident = SEARCH_ID.pack(search_id)
    return template[:24] + ident + ident + template[32:]


def response_template() -> bytes:
    """40-byte search response; the id goes in with ``with_response_id``."""
    header = CA_HDR.pack(CMD_SEARCH, 8, RESPONSE_SERVER_PORT, 0, USE_PACKET_SOURCE, 0)
    return _version() + header + struct.pack(">H", MINOR_VERSION) + b"\x00" * 6


def with_response_id(template: bytes, search_id: int) -> bytes:
    return template[:SEARCH_ID_OFFSET] + SEARCH_ID.pack(search_id) + template[SEARCH_ID_OFFSET + 4 :]


def search_id_of(datagram: bytes) -> int:
    return SEARCH_ID.unpack_from(datagram, SEARCH_ID_OFFSET)[0]


def request_key(datagram: bytes) -> int | None:
    """The search id a span is keyed by, or None for a datagram too short to hold one."""
    return search_id_of(datagram) if len(datagram) >= SEARCH_ID_OFFSET + 4 else None


def _folds_to_zero(data: bytes) -> bool:
    # RFC 1071: the ones'-complement sum is the sum of 16-bit words modulo
    # 0xFFFF, and a correct checksum makes the whole sum fold to zero.
    if len(data) % 2:
        data += b"\x00"
    return int.from_bytes(data, "big") % 0xFFFF == 0


class FrameError(Exception):
    pass


def check_frame(frame: bytes) -> tuple[str, int, str, int, bytes]:
    """Validate an IPv4+UDP frame; returns (src_ip, src_port, dst_ip, dst_port, payload).

    Raises FrameError on a malformed header or a wrong IP or UDP checksum.
    """
    if len(frame) < 28:
        raise FrameError(f"{len(frame)}-byte frame is shorter than the headers")
    ver_ihl, _, total, _, _, _, proto, _, src, dst = IP_HDR.unpack_from(frame)
    if ver_ihl != 0x45 or proto != UDP_PROTO or total != len(frame):
        raise FrameError(f"bad IP header: ver_ihl={ver_ihl:#x} proto={proto} total={total}/{len(frame)}")
    if not _folds_to_zero(frame[:20]):
        raise FrameError("bad IP header checksum")
    src_port, dst_port, udp_len, udp_ck = UDP_HDR.unpack_from(frame, 20)
    if udp_len != total - 20:
        raise FrameError(f"UDP length {udp_len} does not match IP length {total}")
    if udp_ck == 0 or not _folds_to_zero(PSEUDO.pack(src, dst, 0, UDP_PROTO, udp_len) + frame[20:]):
        raise FrameError("bad UDP checksum")
    return (
        ".".join(map(str, src)),
        src_port,
        ".".join(map(str, dst)),
        dst_port,
        frame[28:],
    )
