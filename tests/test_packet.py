import ipaddress
import random
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carelay.packet import (
    ADDRESS_TABLE_SIZE,
    Cidr,
    Ipv4UdpPacket,
    PacketError,
    checksum16,
    decode,
    encode,
    int_to_ip,
    ip_to_int,
)


def oracle_checksum(data: bytes) -> int:
    # Independent formulation: plain integer sum of big-endian words, end-around
    # carry folded once via mod-0xFFFF arithmetic, then complemented.
    if len(data) % 2:
        data += b"\x00"
    total = sum((data[i] << 8) | data[i + 1] for i in range(0, len(data), 2))
    r = total % 0xFFFF
    if r == 0 and total != 0:
        r = 0xFFFF
    return 0xFFFF - r


def word_loop_checksum(data: bytes) -> int:
    # Second oracle, independent of the modulo arithmetic that checksum16 and
    # oracle_checksum share: add word by word with an end-around carry.
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def word_sum(data: bytes) -> int:
    """Plain sum of the big-endian 16-bit words of an even-length buffer."""
    return sum((data[i] << 8) | data[i + 1] for i in range(0, len(data), 2))


def udp_checksum_input(pkt: Ipv4UdpPacket) -> bytes:
    """Pseudo header, UDP header with a zero checksum, and payload."""
    src, dst = socket.inet_aton(pkt.src_ip), socket.inet_aton(pkt.dst_ip)
    udp_length = 8 + len(pkt.payload)
    return (
        struct.pack("!4s4sBBHHHHH", src, dst, 0, 17, udp_length, pkt.src_port, pkt.dst_port, udp_length, 0)
        + pkt.payload
    )


def word_loop_encode(pkt: Ipv4UdpPacket) -> bytes:
    """Reference encoder: struct packing plus word_loop_checksum."""
    src, dst = socket.inet_aton(pkt.src_ip), socket.inet_aton(pkt.dst_ip)
    udp_length = 8 + len(pkt.payload)

    def ip_header(checksum: int) -> bytes:
        return struct.pack(
            "!BBHHHBBH4s4s", 0x45, pkt.dscp_ecn, 20 + udp_length, pkt.identification,
            pkt.flags_fragment, pkt.ttl, 17, checksum, src, dst,
        )

    udp_ck = word_loop_checksum(udp_checksum_input(pkt))
    return (
        ip_header(word_loop_checksum(ip_header(0)))
        + struct.pack("!HHHH", pkt.src_port, pkt.dst_port, udp_length, udp_ck or 0xFFFF)
        + pkt.payload
    )


CLASSIC_HEADER = bytes.fromhex("4500003c1c46400040060000ac100a63ac100a0c")


class TestChecksum16:
    def test_empty_is_all_ones(self):
        assert checksum16(b"") == 0xFFFF

    def test_twenty_zero_bytes(self):
        assert checksum16(bytes(20)) == 0xFFFF

    def test_classic_header_matches_oracle(self):
        # Expected value computed with oracle_checksum before checksum16 existed.
        assert oracle_checksum(CLASSIC_HEADER) == 0xB1E6
        assert checksum16(CLASSIC_HEADER) == 0xB1E6

    def test_odd_length_padding(self):
        assert checksum16(b"\x01") == oracle_checksum(b"\x01")
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")

    def test_agrees_with_oracle_on_1000_random_buffers(self):
        rng = random.Random(0xCA)
        for _ in range(1000):
            buf = rng.randbytes(rng.randrange(0, 128))
            assert checksum16(buf) == oracle_checksum(buf)

    @given(st.binary(max_size=256))
    def test_agrees_with_oracle_property(self, buf):
        assert checksum16(buf) == oracle_checksum(buf)

    @pytest.mark.parametrize(
        "buf, expected",
        [
            (b"\xff\xff", 0),
            (b"\x00\x01\xff\xfe", 0),
            (b"\xff" * 65506, 0),
            # Odd length: the pad byte makes the last word 0xFF00.
            (b"\xff" * 65507, 0x00FF),
        ],
        ids=["ffff", "one-plus-fffe", "65506-ff", "65507-ff"],
    )
    def test_negative_zero_sum_agrees_with_both_oracles(self, buf, expected):
        # A word sum that is a non-zero multiple of 0xFFFF folds to 0xFFFF
        # (negative zero), so its checksum is 0, not the 0xFFFF of a zero sum.
        assert checksum16(buf) == word_loop_checksum(buf) == oracle_checksum(buf) == expected

    @pytest.mark.parametrize("buf", [b"", b"\x00", bytes(20), bytes(65507)])
    def test_zero_input_agrees_with_both_oracles(self, buf):
        assert checksum16(buf) == word_loop_checksum(buf) == oracle_checksum(buf) == 0xFFFF

    def test_agrees_with_both_oracles_up_to_max_payload(self):
        rng = random.Random(0x1071)
        lengths = [1323, 1324, 65506, 65507] + [rng.randrange(0, 65508) for _ in range(24)]
        lengths += [n + 1 if n % 2 == 0 else n for n in lengths[4:16]]  # odd ones too
        for n in lengths:
            buf = rng.randbytes(n)
            assert checksum16(buf) == word_loop_checksum(buf) == oracle_checksum(buf), n


def make_packet(payload=b"", **kwargs) -> Ipv4UdpPacket:
    defaults = dict(
        src_ip="10.2.105.171",
        dst_ip="10.2.1.31",
        src_port=35687,
        dst_port=5064,
        payload=payload,
        identification=7,
    )
    defaults.update(kwargs)
    return Ipv4UdpPacket(**defaults)


FIELD_NAMES = [
    "src_ip", "dst_ip", "src_port", "dst_port", "payload",
    "ttl", "identification", "dscp_ecn", "flags_fragment",
]


class TestValueType:
    def test_assignment_raises_attribute_error(self):
        pkt = make_packet(b"ab")
        for name in FIELD_NAMES:
            with pytest.raises(AttributeError):
                setattr(pkt, name, getattr(pkt, name))

    def test_equal_fields_give_equal_packets_and_hashes(self):
        a, b = make_packet(b"ab"), make_packet(b"ab")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a == tuple(a) and hash(a) == hash(tuple(a))
        assert a != make_packet(b"ab", identification=8)

    def test_repr_names_the_nine_fields_in_order(self):
        assert repr(make_packet(b"ab")) == (
            "Ipv4UdpPacket(src_ip='10.2.105.171', dst_ip='10.2.1.31', src_port=35687, "
            "dst_port=5064, payload=b'ab', ttl=64, identification=7, dscp_ecn=0, flags_fragment=0)"
        )

    def test_positional_and_keyword_construction_fill_the_same_defaults(self):
        positional = Ipv4UdpPacket("10.0.0.1", "10.0.0.2", 1, 2)
        keyword = Ipv4UdpPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2)
        assert positional == keyword
        assert positional._asdict() == keyword._asdict() == {
            "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", "src_port": 1, "dst_port": 2,
            "payload": b"", "ttl": 64, "identification": 0, "dscp_ecn": 0, "flags_fragment": 0,
        }
        full = Ipv4UdpPacket("10.0.0.1", "10.0.0.2", 1, 2, b"x", 3, 4, 5, 6)
        assert [getattr(full, name) for name in FIELD_NAMES] == ["10.0.0.1", "10.0.0.2", 1, 2, b"x", 3, 4, 5, 6]

    def test_missing_or_unknown_argument_rejected(self):
        with pytest.raises(TypeError):
            Ipv4UdpPacket("10.0.0.1", "10.0.0.2", 1)
        with pytest.raises(TypeError):
            Ipv4UdpPacket("10.0.0.1", "10.0.0.2", 1, 2, protocol=17)

    def test_replace_changes_only_the_named_fields(self):
        pkt = make_packet(b"ab", ttl=9, dscp_ecn=3, flags_fragment=0x4000)
        out = pkt._replace(dst_ip="10.2.1.255", ttl=64)
        assert (out.dst_ip, out.ttl) == ("10.2.1.255", 64)
        assert {k: v for k, v in out._asdict().items() if k not in ("dst_ip", "ttl")} == {
            k: v for k, v in pkt._asdict().items() if k not in ("dst_ip", "ttl")
        }

    def test_asdict_holds_exactly_the_nine_fields(self):
        pkt = make_packet(b"ab")
        assert list(pkt._asdict()) == FIELD_NAMES == list(Ipv4UdpPacket._fields)
        # Lengths and checksums are derived by encode, not carried.
        assert not any(hasattr(pkt, name) for name in ("udp_length", "total_length", "udp_checksum"))


def wire_lengths(wire: bytes) -> tuple[int, int]:
    """The IPv4 total length (offset 2) and the UDP length (offset 24) of a frame."""
    return struct.unpack_from("!H", wire, 2)[0], struct.unpack_from("!H", wire, 24)[0]


class TestEncode:
    def test_48_byte_payload_lengths(self):
        pkt = make_packet(bytes(48))
        wire = encode(pkt)
        assert len(wire) == 76
        assert wire_lengths(wire) == (76, 56)
        assert decode(wire) == pkt

    def test_40_byte_payload_lengths(self):
        wire = encode(make_packet(bytes(40)))
        assert len(wire) == 68
        assert wire_lengths(wire) == (68, 48)

    def test_empty_payload_is_28_bytes(self):
        pkt = make_packet()
        wire = encode(pkt)
        assert len(wire) == 28
        assert wire_lengths(wire) == (28, 8)
        assert decode(wire) == pkt

    def test_payload_too_large(self):
        with pytest.raises(PacketError, match="65508 bytes exceeds 65507"):
            encode(make_packet(bytes(65508)))

    def test_max_payload_accepted(self):
        assert len(encode(make_packet(bytes(65507)))) == 65535

    def test_ip_checksum_verifies(self):
        wire = encode(make_packet(b"hello"))
        # Full-header ones'-complement sum, stored checksum included, is all-ones.
        total = 0
        for i in range(0, 20, 2):
            total += (wire[i] << 8) | wire[i + 1]
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF

    def test_ip_header_summing_to_a_multiple_of_ffff_gets_checksum_zero(self):
        # The words of a header with identification 0 leave a residue r; an
        # identification of 0xFFFF - r makes their sum a non-zero multiple
        # of 0xFFFF, which folds to 0xFFFF (negative zero): checksum 0x0000.
        base = make_packet(b"search", identification=0)
        header = word_loop_encode(base)[:20]
        residue = (word_sum(header[:10]) + word_sum(header[12:])) % 0xFFFF
        pkt = make_packet(b"search", identification=0xFFFF - residue)
        wire = encode(pkt)
        assert wire[10:12] == b"\x00\x00"
        assert wire == word_loop_encode(pkt)
        assert decode(wire) == pkt

    def test_udp_zero_checksum_transmitted_as_ffff(self):
        # The last payload word is chosen so that pseudo header, UDP header
        # and payload sum to a multiple of 0xFFFF: the checksum computes to
        # 0x0000, which RFC 768 sends as 0xFFFF.
        base = make_packet(b"search\x00\x00")
        residue = word_sum(udp_checksum_input(base)) % 0xFFFF
        pkt = make_packet(b"search" + ((0xFFFF - residue) % 0xFFFF).to_bytes(2, "big"))
        assert word_loop_checksum(udp_checksum_input(pkt)) == 0
        wire = encode(pkt)
        assert wire[26:28] == b"\xff\xff"
        assert wire == word_loop_encode(pkt)
        assert decode(wire) == pkt


class TestDecode:
    def test_roundtrip_simple(self):
        pkt = make_packet(b"payload!", ttl=17, dscp_ecn=3, flags_fragment=0x4000)
        assert decode(encode(pkt)) == pkt

    def test_27_bytes_truncated(self):
        with pytest.raises(PacketError, match="below the 28-byte minimum"):
            decode(encode(make_packet())[:27])

    def test_ip_checksum_field_incremented(self):
        wire = bytearray(encode(make_packet(b"abc")))
        stored = int.from_bytes(wire[10:12], "big")
        wire[10:12] = ((stored + 1) & 0xFFFF).to_bytes(2, "big")
        with pytest.raises(PacketError, match="IP checksum"):
            decode(bytes(wire))

    def test_not_ipv4(self):
        wire = bytearray(encode(make_packet()))
        wire[0] = (6 << 4) | 5
        wire[10:12] = checksum16(wire[:10] + b"\x00\x00" + wire[12:20]).to_bytes(2, "big")
        with pytest.raises(PacketError, match="version 6"):
            decode(bytes(wire))

    def test_options_rejected_when_checksum_valid(self):
        # ihl=6 with a checksum computed over the first 20 bytes passes the
        # integrity check and then trips the structural rejection.
        wire = bytearray(encode(make_packet(b"12345678")))
        wire[0] = (4 << 4) | 6
        wire[10:12] = checksum16(wire[:10] + b"\x00\x00" + wire[12:20]).to_bytes(2, "big")
        with pytest.raises(PacketError, match="IP options are not supported"):
            decode(bytes(wire))

    def test_not_udp(self):
        wire = bytearray(encode(make_packet()))
        wire[9] = 6  # TCP
        wire[10:12] = checksum16(wire[:10] + b"\x00\x00" + wire[12:20]).to_bytes(2, "big")
        with pytest.raises(PacketError, match="protocol 6"):
            decode(bytes(wire))

    def test_total_length_beyond_buffer(self):
        wire = bytearray(encode(make_packet(b"abcd")))
        wire[2:4] = (200).to_bytes(2, "big")
        wire[10:12] = checksum16(wire[:10] + b"\x00\x00" + wire[12:20]).to_bytes(2, "big")
        with pytest.raises(PacketError, match="total_length 200"):
            decode(bytes(wire))

    def test_udp_checksum_zero_accepted(self):
        wire = bytearray(encode(make_packet(b"abcd")))
        wire[26:28] = b"\x00\x00"
        assert decode(bytes(wire)).payload == b"abcd"

    def test_udp_checksum_corrupt(self):
        wire = bytearray(encode(make_packet(b"abcd")))
        wire[27] ^= 0x01
        if bytes(wire[26:28]) != b"\x00\x00":
            with pytest.raises(PacketError, match="UDP checksum"):
                decode(bytes(wire))

    def test_trailing_padding_ignored(self):
        pkt = make_packet(b"abc")
        assert decode(encode(pkt) + bytes(6)) == pkt

    def test_every_header_bit_flip_reports_bad_ip_checksum(self):
        wire = encode(make_packet(b"some ca payload."))
        for bit in range(160):
            mutated = bytearray(wire)
            mutated[bit // 8] ^= 1 << (7 - bit % 8)
            with pytest.raises(PacketError, match="IP checksum"):
                decode(bytes(mutated))


ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)
ports = st.integers(min_value=0, max_value=0xFFFF)


@given(
    src_ip=ips,
    dst_ip=ips,
    src_port=ports,
    dst_port=ports,
    payload=st.binary(max_size=512),
    ttl=st.integers(min_value=1, max_value=255),
    identification=st.integers(min_value=0, max_value=0xFFFF),
    dscp_ecn=st.integers(min_value=0, max_value=0xFF),
    flags_fragment=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=300)
def test_roundtrip_property(**fields):
    pkt = Ipv4UdpPacket(**fields)
    assert decode(encode(pkt)) == pkt


@given(
    src_ip=ips,
    dst_ip=ips,
    src_port=ports,
    dst_port=ports,
    payload=st.binary(max_size=1400),
    ttl=st.integers(min_value=0, max_value=255),
    identification=st.integers(min_value=0, max_value=0xFFFF),
    dscp_ecn=st.integers(min_value=0, max_value=0xFF),
    flags_fragment=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=300)
def test_encode_matches_word_loop_encoder(**fields):
    pkt = Ipv4UdpPacket(**fields)
    assert encode(pkt) == word_loop_encode(pkt)


# A few addresses that recur across drawn packets, as a relay's clients do.
RECURRING_IPS = ("10.2.105.171", "10.2.105.9", "255.255.255.255", "10.2.1.255")


@given(
    src_ip=st.one_of(st.sampled_from(RECURRING_IPS), ips),
    dst_ip=st.one_of(st.sampled_from(RECURRING_IPS), ips),
    src_port=ports,
    dst_port=ports,
    payload=st.binary(max_size=1400),
    identification=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=200)
def test_encode_from_a_warm_address_table_matches_word_loop_encoder(**fields):
    pkt = Ipv4UdpPacket(**fields)
    first = encode(pkt)
    hits = ip_to_int.cache_info().hits
    assert encode(pkt) == first == word_loop_encode(pkt)
    # The second encode found both addresses in the table.
    assert ip_to_int.cache_info().hits == hits + 2


class TestAddressTable:
    def test_size_is_the_module_constant(self):
        assert ip_to_int.cache_info().maxsize == ADDRESS_TABLE_SIZE

    @pytest.mark.parametrize("bad", ["999.1.1.1", "IMX1-HOST1", ""])
    def test_invalid_address_raises_on_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(OSError):
                ip_to_int(bad)
            with pytest.raises(OSError):
                Cidr(bad, 8)


class TestCidr:
    def test_contains_paper_client(self):
        assert Cidr("10.2.105.0", 24).contains("10.2.105.171")

    def test_prefix_mismatch(self):
        assert not Cidr("10.2.1.0", 24).contains("10.2.105.171")

    def test_zero_prefix_matches_everything(self):
        net = Cidr("0.0.0.0", 0)
        for ip in ("10.2.105.171", "255.255.255.255", "0.0.0.0"):
            assert net.contains(ip)

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Cidr("10.2.105.171", 24)

    def test_parse(self):
        assert Cidr.parse("10.2.1.0/24") == Cidr("10.2.1.0", 24)
        with pytest.raises(ValueError):
            Cidr.parse("10.2.1.0")

    def test_broadcast_address(self):
        assert Cidr("10.2.1.0", 24).broadcast_address() == "10.2.1.255"
        assert Cidr("10.0.0.0", 8).broadcast_address() == "10.255.255.255"

    def test_slash_32(self):
        net = Cidr("10.2.1.31", 32)
        assert net.contains("10.2.1.31")
        assert not net.contains("10.2.1.32")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF), st.integers(min_value=0, max_value=32))
    def test_network_address_always_contained(self, addr, plen):
        mask = 0 if plen == 0 else (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
        net = Cidr(int_to_ip(addr & mask), plen)
        assert net.contains(net.base_ip)
        assert net.contains(net.broadcast_address())

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=300)
    def test_contains_agrees_with_ipaddress(self, addr, plen, other):
        network = ipaddress.ip_network(f"{int_to_ip(addr)}/{plen}", strict=False)
        cidr = Cidr(str(network.network_address), plen)
        # addr is inside; flipping its last prefix bit steps just outside.
        outside = addr ^ (1 << (32 - plen)) if plen else addr
        for ip in map(int_to_ip, (addr, outside, other)):
            assert cidr.contains(ip) == (ipaddress.ip_address(ip) in ipaddress.ip_network(str(cidr)))
        assert cidr.broadcast_address() == str(network.broadcast_address)

    def test_equality_hash_and_repr_see_only_fields(self):
        a, b = Cidr("10.2.1.0", 24), Cidr.parse("10.2.1.0/24")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Cidr(base_ip='10.2.1.0', prefix_len=24)"

