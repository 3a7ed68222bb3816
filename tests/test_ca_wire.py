import enum
import math
import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carelay.ca_wire import (
    CaWireError,
    MisalignedPayload,
    NameTooLong,
    ReplyFlag,
    SearchRequest,
    SearchResponse,
    Truncated,
    check_pv_name,
    encode_search_datagram,
    encode_search_response_datagram,
    find_search_requests,
    find_search_response,
)
from carelay.packet import int_to_ip, ip_to_int

HDR = struct.Struct(">HHHHII")


def commands(data):
    """The command field of each message header in a well-formed datagram."""
    out, offset = [], 0
    while offset < len(data):
        command, size = struct.unpack_from(">HH", data, offset)
        out.append(command)
        offset += 16 + size
    return out


class TestSearchDatagram:
    def test_ten_char_name_is_48_bytes(self):
        # Matches the capture length of the uptime PV search.
        data = encode_search_datagram(SearchRequest("IMX1-HOST1", search_id=1))
        assert len(data) == 48

    def test_eleven_char_name_is_48_bytes(self):
        data = encode_search_datagram(SearchRequest("IMX:DMC4:m1", search_id=2))
        assert len(data) == 48

    def test_one_char_name_is_40_bytes(self):
        assert len(encode_search_datagram(SearchRequest("x", search_id=3))) == 40

    def test_length_formula_for_all_name_lengths(self):
        for n in range(1, 61):
            data = encode_search_datagram(SearchRequest("p" * n, search_id=n))
            assert len(data) == 32 + 8 * math.ceil((n + 1) / 8)
            assert len(data) % 8 == 0

    def test_name_too_long(self):
        with pytest.raises(NameTooLong):
            encode_search_datagram(SearchRequest("p" * 61, search_id=1))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            encode_search_datagram(SearchRequest("", search_id=1))

    def test_roundtrip(self):
        req = SearchRequest("IMX:DMC4:m1", search_id=77, reply_flag=ReplyFlag.DO_REPLY)
        data = encode_search_datagram(req)
        assert commands(data) == [0, 6]
        assert find_search_requests(data) == [req]
        assert find_search_response(data) is None

    def test_search_id_echoed_in_both_params(self):
        data = encode_search_datagram(SearchRequest("a", search_id=0xDEAD))
        assert data[24:32] == (0xDEAD).to_bytes(4, "big") * 2

    def test_find_search_requests(self):
        reqs = find_search_requests(encode_search_datagram(SearchRequest("PV:1", search_id=9)))
        assert [r.pv_name for r in reqs] == ["PV:1"]


class TestSearchResponseDatagram:
    def test_always_40_bytes(self):
        for resp in (
            SearchResponse(server_port=5901, search_id=1),
            SearchResponse(server_port=5902, search_id=2, server_address="10.2.1.31"),
        ):
            assert len(encode_search_response_datagram(resp)) == 40

    def test_roundtrip(self):
        resp = SearchResponse(server_port=5901, search_id=42, server_address="10.2.1.32")
        data = encode_search_response_datagram(resp)
        assert commands(data) == [0, 6]
        assert find_search_response(data) == resp
        assert find_search_requests(data) == []

    def test_use_packet_source_marker(self):
        resp = SearchResponse(server_port=5901, search_id=7, server_address=None)
        data = encode_search_response_datagram(resp)
        assert data[24:28] == b"\xff\xff\xff\xff"
        assert find_search_response(data).server_address is None

    def test_find_search_response(self):
        resp = SearchResponse(server_port=5905, search_id=3)
        assert find_search_response(encode_search_response_datagram(resp)) == resp
        assert find_search_response(encode_search_datagram(SearchRequest("a", 1))) is None


class TestDecodeDatagram:
    def test_48_zero_bytes_parse_as_three_version_messages(self):
        assert commands(bytes(48)) == [0, 0, 0]
        assert find_search_requests(bytes(48)) == []
        assert find_search_response(bytes(48)) is None

    def test_20_byte_input_truncated(self):
        for finder in (find_search_requests, find_search_response):
            with pytest.raises(Truncated):
                finder(bytes(20))

    def test_payload_shorter_than_header_claims(self):
        header = HDR.pack(6, 16, 5, 13, 1, 1)
        for finder in (find_search_requests, find_search_response):
            with pytest.raises(Truncated):
                finder(header + bytes(8))

    def test_misaligned_payload_size(self):
        header = HDR.pack(6, 12, 5, 13, 1, 1)
        for finder in (find_search_requests, find_search_response):
            with pytest.raises(MisalignedPayload):
                finder(header + bytes(12))

    def test_unknown_command_skipped(self):
        search = encode_search_datagram(SearchRequest("PV:1", search_id=9))
        data = HDR.pack(23, 8, 5, 0, 1, 2) + bytes(8) + search
        assert find_search_requests(data) == [SearchRequest("PV:1", search_id=9)]
        assert find_search_response(HDR.pack(23, 0, 0, 0, 0, 0)) is None

    def test_bad_trailer_after_valid_response_raises(self):
        data = encode_search_response_datagram(SearchResponse(server_port=5901, search_id=1))
        with pytest.raises(Truncated):
            find_search_response(data + bytes(4))

    def test_non_ascii_name_raises_codec_error(self):
        data = bytearray(encode_search_datagram(SearchRequest("PV:1", search_id=9)))
        data[32] = 0xFF
        with pytest.raises(CaWireError) as info:
            find_search_requests(bytes(data))
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_empty_datagram(self):
        assert find_search_requests(b"") == []
        assert find_search_response(b"") is None


class TestOneParsePerDatagram:
    def test_a_repeated_datagram_gives_equal_fresh_lists(self):
        data = encode_search_datagram(SearchRequest("PV:1", search_id=9))
        first = find_search_requests(data)
        first.append("caller's own entry")
        again = find_search_requests(data)
        assert type(again) is list
        assert again == [SearchRequest("PV:1", search_id=9)]
        assert again is not find_search_requests(data)

    def test_an_equal_datagram_is_parsed_as_itself(self):
        data = encode_search_datagram(SearchRequest("PV:1", search_id=9))
        find_search_requests(data)
        other = bytes(bytearray(encode_search_datagram(SearchRequest("PV:2", search_id=9))))
        assert find_search_requests(other) == [SearchRequest("PV:2", search_id=9)]

    def test_a_changed_bytearray_is_parsed_again(self):
        data = bytearray(encode_search_datagram(SearchRequest("PV:1", search_id=9)))
        assert find_search_requests(data)[0].pv_name == "PV:1"
        data[35] = ord("2")
        assert find_search_requests(data)[0].pv_name == "PV:2"

    def test_a_malformed_datagram_raises_on_every_call(self):
        data = encode_search_datagram(SearchRequest("PV:1", search_id=9)) + bytes(4)
        for _ in range(3):
            with pytest.raises(Truncated):
                find_search_requests(data)


pv_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=60,
)


@given(
    name=pv_names,
    search_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flag=st.sampled_from([ReplyFlag.DONT_REPLY, ReplyFlag.DO_REPLY]),
    minor=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=200)
def test_search_request_roundtrip_property(name, search_id, flag, minor):
    req = SearchRequest(name, search_id, flag, minor)
    data = encode_search_datagram(req)
    assert len(data) % 8 == 0
    assert find_search_requests(data) == [req]


@given(
    port=st.integers(min_value=11, max_value=0xFFFF),
    search_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    minor=st.integers(min_value=0, max_value=0xFFFF),
    addr=st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFE)),
)
@settings(max_examples=200)
def test_search_response_roundtrip_property(port, search_id, minor, addr):
    resp = SearchResponse(port, search_id, minor, None if addr is None else int_to_ip(addr))
    assert find_search_response(encode_search_response_datagram(resp)) == resp


# -- differential test -----------------------------------------------------
#
# The oracle is the message-object decoder that the finders replaced, copied
# verbatim; the finders must agree with it on every input, except that a
# non-ASCII search name now raises CaWireError where it raised
# UnicodeDecodeError.

CA_HEADER_LEN = 16
CMD_VERSION = 0
CMD_SEARCH = 6
USE_PACKET_SOURCE = 0xFFFFFFFF
_HDR = HDR


class MessageKind(enum.Enum):
    VERSION = "version"
    SEARCH_REQUEST = "search_request"
    SEARCH_RESPONSE = "search_response"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CaHeader:
    command: int
    payload_size: int
    data_type: int
    data_count: int
    param1: int
    param2: int

    def pack(self) -> bytes:
        return _HDR.pack(
            self.command,
            self.payload_size,
            self.data_type,
            self.data_count,
            self.param1,
            self.param2,
        )


@dataclass(frozen=True)
class CaMessage:
    header: CaHeader
    payload: bytes

    @property
    def kind(self) -> MessageKind:
        cmd = self.header.command
        if cmd == CMD_VERSION:
            return MessageKind.VERSION
        if cmd == CMD_SEARCH:
            # Requests carry the reply flag in data_type; responses carry the
            # server port there, which never collides with the two flag codes.
            if self.header.data_type in (ReplyFlag.DONT_REPLY, ReplyFlag.DO_REPLY):
                return MessageKind.SEARCH_REQUEST
            return MessageKind.SEARCH_RESPONSE
        return MessageKind.UNKNOWN


def decode_datagram(data: bytes) -> list[CaMessage]:
    """Split a datagram into its consecutive header+payload messages."""
    messages = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < CA_HEADER_LEN:
            raise Truncated(f"{len(data) - offset} bytes left, header needs {CA_HEADER_LEN}")
        header = CaHeader(*_HDR.unpack_from(data, offset))
        if header.payload_size % 8:
            raise MisalignedPayload(f"payload_size {header.payload_size} not a multiple of 8")
        offset += CA_HEADER_LEN
        if len(data) - offset < header.payload_size:
            raise Truncated(
                f"payload_size {header.payload_size} but only {len(data) - offset} bytes remain"
            )
        messages.append(CaMessage(header, bytes(data[offset : offset + header.payload_size])))
        offset += header.payload_size
    return messages


def search_request_fields(msg: CaMessage) -> SearchRequest:
    if msg.kind is not MessageKind.SEARCH_REQUEST:
        raise ValueError(f"not a search request: {msg.header}")
    name = msg.payload.split(b"\x00", 1)[0].decode("ascii")
    return SearchRequest(
        pv_name=name,
        search_id=msg.header.param1,
        reply_flag=ReplyFlag(msg.header.data_type),
        minor_version=msg.header.data_count,
    )


def search_response_fields(msg: CaMessage) -> SearchResponse:
    if msg.kind is not MessageKind.SEARCH_RESPONSE:
        raise ValueError(f"not a search response: {msg.header}")
    param1 = msg.header.param1
    minor = struct.unpack_from(">H", msg.payload)[0] if len(msg.payload) >= 2 else 0
    return SearchResponse(
        server_port=msg.header.data_type,
        search_id=msg.header.param2,
        server_minor_version=minor,
        server_address=None if param1 == USE_PACKET_SOURCE else int_to_ip(param1),
    )


def oracle_find_search_requests(data: bytes) -> list[SearchRequest]:
    return [
        search_request_fields(m)
        for m in decode_datagram(data)
        if m.kind is MessageKind.SEARCH_REQUEST
    ]


def oracle_find_search_response(data: bytes) -> SearchResponse | None:
    for m in decode_datagram(data):
        if m.kind is MessageKind.SEARCH_RESPONSE:
            return search_response_fields(m)
    return None


u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
padded_payloads = st.binary(max_size=72).map(lambda b: b + bytes(-len(b) % 8))
raw_messages = st.builds(
    lambda command, data_type, count, p1, p2, payload: HDR.pack(
        command, len(payload), data_type, count, p1, p2
    ) + payload,
    st.one_of(st.sampled_from([CMD_VERSION, CMD_SEARCH, 23]), u16),
    st.one_of(st.sampled_from([5, 10, 5064]), u16),
    u16,
    st.one_of(st.just(USE_PACKET_SOURCE), u32),
    u32,
    padded_payloads,
)
encoded_requests = st.builds(
    SearchRequest, pv_names, u32, st.sampled_from(list(ReplyFlag)), u16
).map(encode_search_datagram)
encoded_responses = st.builds(
    SearchResponse,
    u16,
    u32,
    u16,
    st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFE).map(int_to_ip)),
).map(encode_search_response_datagram)
well_formed = st.lists(
    st.one_of(raw_messages, encoded_requests, encoded_responses), max_size=5
).map(b"".join)


@st.composite
def damaged(draw):
    data = bytearray(draw(well_formed.filter(bool)))
    if draw(st.booleans()):
        return bytes(data[: draw(st.integers(min_value=0, max_value=len(data) - 1))])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        data[draw(st.integers(min_value=0, max_value=len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def outcome(finder, data):
    try:
        return finder(data)
    except (CaWireError, UnicodeDecodeError) as exc:
        return type(exc)


@given(data=st.one_of(st.binary(max_size=96), well_formed, damaged()))
@settings(max_examples=600)
def test_finders_match_message_object_decoder(data):
    for finder, oracle in (
        (find_search_requests, oracle_find_search_requests),
        (find_search_response, oracle_find_search_response),
    ):
        expected = outcome(oracle, data)
        if expected is UnicodeDecodeError:
            expected = CaWireError
        assert outcome(finder, data) == expected



# -- reference encoders ----------------------------------------------------
#
# The encoders that the one-pack ones replaced, copied verbatim: the version
# message, the search header and the payload each packed on its own and
# joined. The one-pack encoders must give the same bytes for every record.


def _version_message(minor_version: int) -> bytes:
    return _HDR.pack(CMD_VERSION, 0, 0, minor_version, 0, 0)


def reference_encode_search_datagram(req: SearchRequest) -> bytes:
    payload = check_pv_name(req.pv_name).encode("ascii") + b"\x00"
    payload += bytes(-len(payload) % 8)
    header = _HDR.pack(
        CMD_SEARCH, len(payload), req.reply_flag, req.minor_version, req.search_id, req.search_id
    )
    return _version_message(req.minor_version) + header + payload


def reference_encode_search_response_datagram(resp: SearchResponse) -> bytes:
    param1 = USE_PACKET_SOURCE if resp.server_address is None else ip_to_int(resp.server_address)
    header = _HDR.pack(CMD_SEARCH, 8, resp.server_port, 0, param1, resp.search_id)
    payload = struct.pack(">H", resp.server_minor_version) + b"\x00" * 6
    return _version_message(resp.server_minor_version) + header + payload


@given(
    name=pv_names,
    search_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flag=st.sampled_from([ReplyFlag.DONT_REPLY, ReplyFlag.DO_REPLY]),
    minor=st.integers(min_value=0, max_value=0xFFFF),
)
@settings(max_examples=300)
def test_search_encoder_matches_reference(name, search_id, flag, minor):
    req = SearchRequest(name, search_id, flag, minor)
    assert encode_search_datagram(req) == reference_encode_search_datagram(req)


@given(
    port=st.integers(min_value=0, max_value=0xFFFF),
    search_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    minor=st.integers(min_value=0, max_value=0xFFFF),
    addr=st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFF)),
)
@settings(max_examples=300)
def test_search_response_encoder_matches_reference(port, search_id, minor, addr):
    resp = SearchResponse(port, search_id, minor, None if addr is None else int_to_ip(addr))
    assert encode_search_response_datagram(resp) == reference_encode_search_response_datagram(resp)


class TestPositionalRecords:
    # The finders build their records with new_record; each must equal the
    # constructor's build in type and in every field.

    @staticmethod
    def check(built, expected):
        assert type(built) is type(expected)
        assert built._asdict() == expected._asdict()

    def test_found_search_request(self):
        data = encode_search_datagram(SearchRequest("PV:1", 7, ReplyFlag.DO_REPLY, 11))
        (found,) = find_search_requests(data)
        self.check(found, SearchRequest(pv_name="PV:1", search_id=7, reply_flag=ReplyFlag.DO_REPLY, minor_version=11))
        assert type(found.reply_flag) is ReplyFlag

    @pytest.mark.parametrize("address", [None, "10.2.1.31"])
    def test_found_search_response(self, address):
        data = encode_search_response_datagram(SearchResponse(5901, 9, 12, address))
        expected = SearchResponse(server_port=5901, search_id=9, server_minor_version=12, server_address=address)
        self.check(find_search_response(data), expected)
