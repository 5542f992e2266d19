"""Property tests for the distributed wire protocol.

Version-3 frames always carry header and blob checksums, zlib-compress
blobs above :data:`COMPRESS_THRESHOLD`, and ship each shard's tally.
Hypothesis drives random headers, payloads, and outcome streams through
the real encoder/decoder (over a real socket pair): every frame must
round-trip losslessly on either side of the compression threshold,
shipped shard tallies must sum to the serial tally, and any single
flipped bit past the fixed prefix must surface as a
:class:`FrameIntegrityError`.
"""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import add_tallies, tally_outcomes
from repro.distributed.protocol import (
    COMPRESS_THRESHOLD,
    FRAME_PREFIX,
    FrameIntegrityError,
    encode_frame,
    encode_frame_ex,
    recv_message_ex,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: JSON-scalar values for header fields (headers are small and flat).
header_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)

#: Frame headers: always a typed object, plus random scalar fields
#: (excluding the reserved encoding keys the sender manages).
headers = st.fixed_dictionaries(
    {"type": st.sampled_from(["run", "result", "heartbeat", "context", "ping"])},
    optional={
        "campaign": st.text(min_size=1, max_size=12),
        "shard": st.integers(min_value=0, max_value=10_000),
        "start": st.integers(min_value=0, max_value=10_000),
        "count": st.integers(min_value=0, max_value=10_000),
        "worker": st.text(max_size=16),
    },
)

#: One answer tuple, as the samplers produce them; ``1``, ``1.0`` and
#: ``True`` are equal answers of different types.
answer_tuples = st.tuples(
    st.one_of(
        st.text(max_size=8),
        st.integers(min_value=-100, max_value=100),
        st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    )
)

#: One draw outcome: None (discarded draw) or its answer set.
outcomes_strategy = st.lists(
    st.one_of(st.none(), st.frozensets(answer_tuples, max_size=6)),
    max_size=40,
)

#: Payloads as shipped in result/context frames.
payloads = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.one_of(
            st.integers(),
            st.text(max_size=50),
            st.binary(max_size=200),
            st.lists(st.integers(), max_size=30),
        ),
        max_size=5,
    ),
)


def _over_socket(frame: bytes):
    """Decode *frame* through the real receive path (a local socketpair)."""
    left, right = socket.socketpair()
    try:
        left.sendall(frame)
        left.shutdown(socket.SHUT_WR)
        return recv_message_ex(right)
    finally:
        left.close()
        right.close()


#: Frame-layer bookkeeping the encoder adds to the caller's header.
FRAME_FIELDS = {"crc", "hcrc", "enc", "raw"}


def _caller_fields(received: dict) -> dict:
    return {k: v for k, v in received.items() if k not in FRAME_FIELDS}


#: Compressible padding that puts a payload's pickle within a few bytes
#: of the compression threshold, on either side of it.
threshold_padding = st.integers(
    min_value=COMPRESS_THRESHOLD - 256, max_value=COMPRESS_THRESHOLD + 256
).map(lambda size: b"x" * size)


class TestFrameRoundtrip:
    @given(header=headers, payload=payloads)
    @settings(max_examples=60, deadline=None)
    def test_plain_roundtrip(self, header, payload):
        frame = encode_frame(header, payload)
        received, received_payload, stats = _over_socket(frame)
        assert _caller_fields(received) == header
        assert received_payload == payload
        assert not stats.compressed

    @given(header=headers, payload=payloads, padding=threshold_padding)
    @settings(max_examples=60, deadline=None)
    def test_compressed_roundtrip(self, header, payload, padding):
        # The padding lands the pickle on either side of the threshold,
        # so the compression decision goes both ways.
        payload = (payload, padding)
        frame, sent = encode_frame_ex(header, payload)
        received, received_payload, stats = _over_socket(frame)
        assert received_payload == payload
        assert _caller_fields(received) == header
        assert sent.compressed == (sent.payload_raw >= COMPRESS_THRESHOLD)
        assert stats.compressed == sent.compressed
        if sent.compressed:
            assert received["enc"] == "zlib"
            assert received["raw"] == sent.payload_raw
            assert sent.payload_wire < sent.payload_raw
        else:
            assert sent.payload_wire == sent.payload_raw

    @given(
        header=headers,
        payload=payloads,
        padding=st.one_of(st.just(b""), threshold_padding),
        position=st.floats(min_value=0, max_value=1, exclude_max=True),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_flipped_bit_raises_integrity_error(
        self, header, payload, padding, position, bit
    ):
        frame = bytearray(encode_frame(header, (payload, padding)))
        offset = FRAME_PREFIX.size + int(position * (len(frame) - FRAME_PREFIX.size))
        frame[offset] ^= 1 << bit
        with pytest.raises(FrameIntegrityError):
            _over_socket(bytes(frame))


def _items(tally):
    """A tally's counts with their keys' representations, in order."""
    return [(repr(answer), count) for answer, count in tally.counts.items()]


class TestTallyFrames:
    @given(
        outcomes=outcomes_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
        padding=st.one_of(st.just(b""), threshold_padding),
    )
    @settings(max_examples=100, deadline=None)
    def test_shipped_shard_tallies_sum_to_the_serial_tally(
        self, outcomes, cuts, padding
    ):
        """A range cut into shards at any points, each shard's tally
        shipped in a ``result`` frame and the received tallies summed
        in draw order, equals the range's serial tally: counts, key
        types and key order."""
        serial = tally_outcomes(outcomes)
        bounds = sorted({0, len(outcomes), *(c for c in cuts if c < len(outcomes))})
        received = []
        for shard, (low, high) in enumerate(zip(bounds, bounds[1:])):
            header = {"type": "result", "shard": shard, "campaign": "c42"}
            body = {"tally": tally_outcomes(outcomes[low:high]), "pad": padding}
            frame = encode_frame(header, body)
            answered, payload, _stats = _over_socket(frame)
            assert answered["campaign"] == "c42"
            assert payload == body
            received.append(payload["tally"])
        merged = add_tallies(received)
        assert merged == serial
        assert _items(merged) == _items(serial)
        assert merged.draws == len(outcomes)
        assert merged.draws - merged.valid == outcomes.count(None)

    def test_equal_but_differently_typed_answers_keep_the_first(self):
        outcomes = [frozenset({(1.0,)}), None, frozenset({(1,), ("x",)})]
        tallies = [tally_outcomes([outcome]) for outcome in outcomes]
        merged = add_tallies(
            _over_socket(encode_frame({"type": "result"}, tally))[1]
            for tally in tallies
        )
        assert merged == (3, 2, {(1,): 2, ("x",): 1})
        assert _items(merged) == [("(1.0,)", 2), ("('x',)", 1)]
