"""IPv4+UDP datagram construction and parsing.

Builds and validates the 20-byte IPv4 header (RFC 791) and 8-byte UDP
header (RFC 768) in network byte order, including datagrams whose source
address is not the sender's own. Only plain headers are supported: no IP
options, no fragmentation, IPv4 only. A datagram is an ``Ipv4UdpPacket``, a
NamedTuple of the header fields a sender chooses; ``encode`` and ``decode``
alone compute the lengths and checksums that follow from them. The relay
builds one per datagram as ``_make`` does, ``tuple.__new__(Ipv4UdpPacket,
fields)`` with all nine fields, skipping the constructor's Python ``__new__``.

Both checksums are ones'-complement sums of 16-bit words, arithmetic modulo
0xFFFF by RFC 1071 section 2. As 2**16 is 1 modulo 0xFFFF, whole words from
a word boundary add the residue of the integer they spell: an address adds
as one 32-bit integer, a payload as ``int.from_bytes`` of it, shifted left
a byte if its length is odd (the pad). So ``encode`` sums fields, not bytes,
in one pass that adds the two addresses once for both checksums.

``ip_to_int`` keeps the last ``ADDRESS_TABLE_SIZE`` distinct addresses it
converted, so ``encode``, ``Cidr.contains`` and the relay's filter convert an
address once, not per datagram. Sources come off the network, so the table is
bounded: forged ones evict the oldest instead of growing it. A string that is
not an address raises every time, as it is never stored.
"""

from __future__ import annotations

import functools
import socket
import struct
from dataclasses import dataclass
from typing import NamedTuple

UDP_PROTO = 17
IP_HEADER_LEN = 20
UDP_HEADER_LEN = 8
MAX_UDP_PAYLOAD = 65507  # 65535 - 20 (IP header) - 8 (UDP header)

_HEADERS = struct.Struct("!BBHHHBBHIIHHHH")
_VERSION_IHL = 0x45  # IPv4, five-word header: the only form supported
ADDRESS_TABLE_SIZE = 4096  # distinct addresses ip_to_int keeps (module docstring)
# The constant words of each checksum sum, the lengths' fixed parts included:
# version/IHL, total length 28 + n and the protocol for IP; the protocol and
# the UDP length 8 + n, counted twice (pseudo and UDP header), for UDP.
_IP_SUM_BASE = (_VERSION_IHL << 8) + IP_HEADER_LEN + UDP_HEADER_LEN + UDP_PROTO
_UDP_SUM_BASE = UDP_PROTO + 2 * UDP_HEADER_LEN


class PacketError(Exception):
    """Base class for encode/decode failures."""


class PayloadTooLarge(PacketError):
    pass


class Truncated(PacketError):
    pass


class NotIpv4(PacketError):
    pass


class NotUdp(PacketError):
    pass


class BadIpChecksum(PacketError):
    pass


class BadUdpChecksum(PacketError):
    pass


class OptionsUnsupported(PacketError):
    pass


@functools.lru_cache(maxsize=ADDRESS_TABLE_SIZE)
def ip_to_int(ip: str) -> int:
    return int.from_bytes(socket.inet_aton(ip), "big")


def int_to_ip(value: int) -> str:
    return socket.inet_ntoa(value.to_bytes(4, "big"))


def checksum16(data: bytes) -> int:
    """Internet ones'-complement checksum (RFC 1071).

    Odd-length input is padded with a zero byte. Returns the complement of
    the ones'-complement 16-bit sum, so an empty input yields 0xFFFF.

    RFC 1071 section 2 shows the end-around-carry sum to be arithmetic modulo
    2**16 - 1, and 2**16 is 1 modulo 2**16 - 1, so the whole buffer read as
    one big-endian integer has the same residue as the sum of its words.
    The one difference is the fold: a non-zero sum folds to 0xFFFF (negative
    zero), never to 0.
    """
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return ~total & 0xFFFF


@dataclass(frozen=True)
class Cidr:
    """IPv4 prefix; host bits of base_ip below prefix_len must be zero.

    ``base`` and ``mask`` are the prefix as integers, kept outside the
    dataclass fields, so equality, hashing and repr still see only base_ip
    and prefix_len.
    """

    base_ip: str
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_len}")
        base = ip_to_int(self.base_ip)  # also validates the dotted quad
        mask = (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
        if base & ~mask:
            raise ValueError(f"host bits set in {self.base_ip}/{self.prefix_len}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def parse(cls, text: str) -> "Cidr":
        base, sep, plen = text.partition("/")
        if not sep:
            raise ValueError(f"not a CIDR prefix: {text!r}")
        return cls(base, int(plen))

    def contains(self, ip: str) -> bool:
        return ip_to_int(ip) & self.mask == self.base

    def broadcast_address(self) -> str:
        return int_to_ip(self.base | (~self.mask & 0xFFFFFFFF))

    def __str__(self) -> str:
        return f"{self.base_ip}/{self.prefix_len}"


class Ipv4UdpPacket(NamedTuple):
    """One UDP datagram with its IPv4 header fields.

    A plain record: lengths and checksums are not stored, as ``encode``
    computes them from the fields and ``decode`` checks the wire copies
    against them. Being a tuple, it compares equal to, and hashes as, the
    plain tuple of its nine fields.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes = b""
    ttl: int = 64
    identification: int = 0
    dscp_ecn: int = 0
    flags_fragment: int = 0


def _udp_checksum(addresses: int, src_port: int, dst_port: int, size: int, payload: bytes) -> int:
    """UDP checksum field over pseudo header, UDP header and a payload of size bytes.

    ``addresses`` is the source plus the destination, as integers. The sum is
    never zero (the length is at least 8), so a residue of 0 is negative
    zero: 0x0000, sent as 0xFFFF (RFC 768), which 0xFFFF minus it gives.
    """
    # Reduced first, so that the shift and the sum below act on small ints.
    body = int.from_bytes(payload, "big") % 0xFFFF
    if size & 1:
        body <<= 8
    return 0xFFFF - (_UDP_SUM_BASE + addresses + 2 * size + src_port + dst_port + body) % 0xFFFF


def encode(packet: Ipv4UdpPacket) -> bytes:
    """Serialize to wire bytes, computing both checksums in one pass.

    Both checksums come from the field values as integers (module docstring),
    share one sum of the two addresses, and take the header constants and
    the lengths as folded into ``_IP_SUM_BASE`` and ``_UDP_SUM_BASE``; both
    headers are packed once. The IP header's sum is non-zero, so ``-sum %
    0xFFFF`` is its checksum: 0, not 0xFFFF, for a multiple of 0xFFFF, as
    ``checksum16`` gives over the packed header.
    """
    src_ip, dst_ip, src_port, dst_port, payload, ttl, identification, dscp_ecn, flags_fragment = packet
    size = len(payload)
    if size > MAX_UDP_PAYLOAD:
        raise PayloadTooLarge(f"payload of {size} bytes exceeds {MAX_UDP_PAYLOAD}")
    src = ip_to_int(src_ip)
    dst = ip_to_int(dst_ip)
    addresses = src + dst
    return _HEADERS.pack(
        _VERSION_IHL, dscp_ecn, size + IP_HEADER_LEN + UDP_HEADER_LEN, identification, flags_fragment,
        ttl, UDP_PROTO,
        -(_IP_SUM_BASE + dscp_ecn + size + identification + flags_fragment + (ttl << 8) + addresses) % 0xFFFF,
        src, dst, src_port, dst_port, size + UDP_HEADER_LEN,
        _udp_checksum(addresses, src_port, dst_port, size, payload),
    ) + payload


def decode(data: bytes) -> Ipv4UdpPacket:
    """Parse and validate wire bytes; inverse of encode on valid input.

    Both headers are unpacked at once, but the IP checksum is verified over
    the first 20 bytes before any field is interpreted, so arbitrary header
    corruption surfaces as BadIpChecksum. A stored UDP checksum of zero
    means "not computed" and is accepted.
    """
    if len(data) < IP_HEADER_LEN + UDP_HEADER_LEN:
        raise Truncated(f"{len(data)} bytes is below the 28-byte minimum")

    (
        ver_ihl,
        dscp_ecn,
        total_length,
        identification,
        flags_fragment,
        ttl,
        protocol,
        stored_ip_ck,
        src,
        dst,
        src_port,
        dst_port,
        udp_length,
        stored_udp_ck,
    ) = _HEADERS.unpack_from(data)

    zeroed = data[:10] + b"\x00\x00" + data[12:IP_HEADER_LEN]
    if checksum16(zeroed) != stored_ip_ck:
        raise BadIpChecksum(f"stored 0x{stored_ip_ck:04x}, computed 0x{checksum16(zeroed):04x}")

    version = ver_ihl >> 4
    ihl = ver_ihl & 0x0F
    if version != 4:
        raise NotIpv4(f"version {version}")
    if ihl > 5:
        raise OptionsUnsupported(f"header length {ihl} words")
    if ihl < 5:
        raise NotIpv4(f"header length {ihl} words is below the IPv4 minimum")
    if protocol != UDP_PROTO:
        raise NotUdp(f"protocol {protocol}")
    if total_length > len(data) or total_length < IP_HEADER_LEN + UDP_HEADER_LEN:
        raise Truncated(f"total_length {total_length} vs {len(data)} bytes available")
    if udp_length != total_length - IP_HEADER_LEN or udp_length < UDP_HEADER_LEN:
        raise Truncated(f"udp_length {udp_length} inconsistent with total_length {total_length}")

    payload = bytes(data[IP_HEADER_LEN + UDP_HEADER_LEN : total_length])
    if stored_udp_ck != 0:
        udp_checksum = _udp_checksum(src + dst, src_port, dst_port, len(payload), payload)
        if stored_udp_ck != udp_checksum:
            raise BadUdpChecksum(f"stored 0x{stored_udp_ck:04x}, computed 0x{udp_checksum:04x}")
    # Positional, in field order: binding nine keywords costs twice as much.
    return Ipv4UdpPacket(
        int_to_ip(src), int_to_ip(dst), src_port, dst_port, payload,
        ttl, identification, dscp_ecn, flags_fragment,
    )
