"""Unit tests for the distributed-sampling building blocks: protocol
framing, lease tables, shard contexts, and the draw-indexed substreams
they all rest on."""

import json
import pickle
import socket
import threading
import time
import zlib

import pytest

from repro.campaign import SamplingCampaign, draw_rng
from repro.diagnostics import reset_fault_stats
from repro.distributed import (
    DistributedSamplingError,
    InlineTransport,
    LeaseTable,
    ShardContext,
    SocketTransport,
    WorkerServer,
    WorkerUnavailable,
)
from repro.distributed.protocol import (
    FRAME_PREFIX,
    MAGIC,
    ConnectionClosed,
    FrameIntegrityError,
    ProtocolError,
    WorkerError,
    encode_frame,
    encode_frame_ex,
    intern_outcomes,
    recv_message,
    recv_message_ex,
    restore_outcomes,
    send_message,
)


def _socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname(), timeout=5)
    conn, _ = server.accept()
    server.close()
    return client, conn


def _raw_frame(header: dict, blob: bytes = b"", magic: bytes = MAGIC) -> bytes:
    """A frame assembled by hand, with exactly the header fields given."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return FRAME_PREFIX.pack(magic, len(header_bytes), len(blob)) + header_bytes + blob


def _with_hcrc(header: dict) -> dict:
    """*header* plus the header checksum a real sender would add."""
    probe = {**header, "hcrc": 0}
    probe["hcrc"] = zlib.crc32(json.dumps(probe, separators=(",", ":")).encode())
    return probe


class TestProtocolFraming:
    def test_roundtrip_header_and_payload(self):
        client, conn = _socket_pair()
        try:
            payload = {"outcomes": [frozenset({("a",)}), None], "n": 2}
            send_message(client, {"type": "result", "shard": 3}, payload)
            header, received = recv_message(conn)
            assert header.items() >= {"type": "result", "shard": 3}.items()
            assert received == payload
        finally:
            client.close()
            conn.close()

    def test_headers_without_payload(self):
        client, conn = _socket_pair()
        try:
            send_message(client, {"type": "heartbeat", "shard": 0})
            header, payload = recv_message(conn)
            assert header["type"] == "heartbeat"
            assert payload is None
        finally:
            client.close()
            conn.close()

    def test_bad_magic_rejected(self):
        client, conn = _socket_pair()
        try:
            client.sendall(b"NOPE" + b"\x00" * 8)
            with pytest.raises(ProtocolError):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_eof_mid_frame_raises_connection_closed(self):
        client, conn = _socket_pair()
        try:
            frame = encode_frame({"type": "run", "start": 0})
            client.sendall(frame[: len(frame) // 2])
            client.close()
            with pytest.raises(ConnectionClosed):
                recv_message(conn)
        finally:
            conn.close()

    def test_multiple_frames_in_sequence(self):
        client, conn = _socket_pair()
        try:
            for index in range(3):
                send_message(client, {"type": "heartbeat", "shard": index})
            shards = [recv_message(conn)[0]["shard"] for _ in range(3)]
            assert shards == [0, 1, 2]
        finally:
            client.close()
            conn.close()


class TestCompressedFrames:
    def test_large_payload_compresses_on_the_wire(self):
        client, conn = _socket_pair()
        try:
            payload = {"outcomes": [("repeat", "me")] * 5000}
            frame, stats = encode_frame_ex({"type": "result", "shard": 1}, payload)
            assert stats.compressed
            assert stats.payload_wire < stats.payload_raw
            client.sendall(frame)
            header, received, rstats = recv_message_ex(conn)
            assert header["enc"] == "zlib"
            assert header["raw"] == stats.payload_raw
            assert received == payload
            assert rstats.compressed
        finally:
            client.close()
            conn.close()

    def test_small_payload_stays_plain(self):
        frame, stats = encode_frame_ex({"type": "result"}, {"n": 1})
        assert not stats.compressed
        assert b"zlib" not in frame[:64]

    def test_incompressible_payload_stays_plain(self):
        import os as _os

        noise = _os.urandom(64_000)
        _frame, stats = encode_frame_ex({"type": "x"}, noise)
        assert not stats.compressed
        assert stats.payload_wire == stats.payload_raw

    def test_small_frames_are_plain_json_and_pickle(self):
        # Below the threshold the blob is the bare pickle and the header
        # is the caller's fields plus the two checksums.
        header = {"type": "result", "shard": 2}
        payload = {"outcomes": [None, ((),)]}
        plain = encode_frame(header, payload)
        magic, hlen, blen = FRAME_PREFIX.unpack(plain[: FRAME_PREFIX.size])
        assert magic == b"RPW2"
        body = plain[FRAME_PREFIX.size :]
        wire_header = json.loads(body[:hlen])
        blob = body[hlen:]
        assert len(blob) == blen
        assert wire_header == _with_hcrc({**header, "crc": zlib.crc32(blob)})
        assert pickle.loads(blob) == payload

    def test_unknown_encoding_rejected(self):
        client, conn = _socket_pair()
        try:
            client.sendall(encode_frame({"type": "x", "enc": "zstd"}, {"a": 1}))
            with pytest.raises(ProtocolError, match="unknown encoding"):
                recv_message(conn)
        finally:
            client.close()
            conn.close()


class TestFrameIntegrity:
    def test_crc_roundtrip(self):
        client, conn = _socket_pair()
        try:
            payload = {"outcomes": [frozenset({("a",)}), None]}
            send_message(client, {"type": "result", "shard": 1}, payload)
            header, received = recv_message(conn)
            assert "crc" in header
            assert received == payload
        finally:
            client.close()
            conn.close()

    def test_corrupted_blob_raises_integrity_error_not_pickle(self):
        client, conn = _socket_pair()
        try:
            frame = bytearray(encode_frame({"type": "result"}, {"outcomes": [1, 2, 3]}))
            frame[-1] ^= 0xFF  # flip bits deep in the pickle blob
            client.sendall(bytes(frame))
            with pytest.raises(FrameIntegrityError):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_corrupted_blob_without_crc_is_protocol_error_not_pickle(self):
        # A blob that arrives without a checksum is refused before it is
        # unpickled: a transient FrameIntegrityError, never a raw
        # UnpicklingError.
        client, conn = _socket_pair()
        try:
            blob = bytearray(pickle.dumps({"n": [1, 2]}))
            blob[-3] ^= 0x5A
            client.sendall(_raw_frame(_with_hcrc({"type": "result"}), bytes(blob)))
            with pytest.raises(FrameIntegrityError, match="disagrees"):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_crc_covers_compressed_bytes(self):
        client, conn = _socket_pair()
        try:
            payload = {"outcomes": [("repeat", "me")] * 5000}
            frame, stats = encode_frame_ex({"type": "result"}, payload)
            assert stats.compressed
            client.sendall(frame)
            header, received = recv_message(conn)
            assert header["enc"] == "zlib" and "crc" in header
            assert received == payload
        finally:
            client.close()
            conn.close()

    def test_headerless_blob_frames_carry_no_crc(self):
        frame = encode_frame({"type": "ping"}, None)
        assert b'"crc"' not in frame
        assert b'"hcrc"' in frame

    def test_zeroed_blob_length_raises_integrity_error(self):
        # The fixed prefix sits outside both checksums.  A blob length
        # zeroed in flight must not decode as a blobless frame (a context
        # frame would then build from ``None`` and fail fatally): the
        # header's ``crc`` without a blob gives the corruption away.
        client, conn = _socket_pair()
        try:
            frame = encode_frame({"type": "context"}, {"facts": [1, 2, 3]})
            size = FRAME_PREFIX.size
            magic, header_len, _blob_len = FRAME_PREFIX.unpack(frame[:size])
            header = frame[size : size + header_len]
            client.sendall(FRAME_PREFIX.pack(magic, header_len, 0) + header)
            with pytest.raises(FrameIntegrityError):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_header_without_hcrc_raises_integrity_error(self):
        client, conn = _socket_pair()
        try:
            client.sendall(_raw_frame({"type": "ping"}))
            with pytest.raises(FrameIntegrityError, match="hcrc"):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_corrupted_header_field_raises_integrity_error(self):
        # A flipped digit in the header would silently re-route a shard
        # (wrong start/count/shard) — the header CRC must catch it even
        # when the corrupted header is still valid JSON.
        client, conn = _socket_pair()
        try:
            frame = encode_frame({"type": "result", "shard": 41}, {"outcomes": [None]})
            assert b'"shard":41' in frame
            client.sendall(frame.replace(b'"shard":41', b'"shard":47'))
            with pytest.raises(FrameIntegrityError):
                recv_message(conn)
        finally:
            client.close()
            conn.close()

    def test_flip_that_decodes_to_the_same_header_raises_integrity_error(self):
        # "\u001f" and "\u001F" are one JSON string: a flipped case bit
        # in the escape leaves the decoded header unchanged, so only a
        # CRC over the shipped bytes sees it.
        client, conn = _socket_pair()
        try:
            frame = encode_frame({"type": "run", "campaign": "c\x1f"})
            assert b"\\u001f" in frame
            client.sendall(frame.replace(b"\\u001f", b"\\u001F"))
            with pytest.raises(FrameIntegrityError, match="hcrc"):
                recv_message(conn)
        finally:
            client.close()
            conn.close()


class TestVersionRefusal:
    """Version 2 speaks to version 2 only: a version-1 peer is refused by
    its magic, loudly on the coordinator side and as a counted malformed
    frame on the worker side."""

    def test_worker_drops_a_version_1_hello(self):
        server = WorkerServer()
        thread = server.start()
        try:
            address = (server.host, server.port)
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(_raw_frame({"type": "hello"}, magic=b"RPW1"))
                try:
                    reply = sock.recv(4096)
                except ConnectionResetError:  # closed with the hello unread
                    reply = b""
                assert reply == b""
            deadline = time.monotonic() + 5
            while not server.fault_counts and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.fault_counts == {"malformed_frames": 1}
        finally:
            server.shutdown()
            thread.join(timeout=5)
            reset_fault_stats()

    def test_transport_refuses_a_version_1_worker_naming_both_versions(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def version_1_worker():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)  # the hello
                conn.sendall(_raw_frame({"type": "welcome"}, magic=b"RPW1"))

        thread = threading.Thread(target=version_1_worker, daemon=True)
        thread.start()
        transport = SocketTransport(*listener.getsockname())
        try:
            with pytest.raises(WorkerUnavailable, match="RPW1.*RPW2"):
                transport.ensure_context(ShardContext.create("chain", {}))
        finally:
            transport.close()
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()


class TestInterning:
    def test_roundtrip_preserves_order_and_values(self):
        a, b = frozenset({("x",)}), frozenset({("y",), ("z",)})
        outcomes = [a, b, a, None, a, b, None]
        encoded = intern_outcomes(outcomes)
        assert len(encoded["table"]) == 3  # a, b, None — each shipped once
        assert restore_outcomes(encoded) == outcomes

    def test_unhashable_outcomes_survive(self):
        outcomes = [[("x",), ("y",)], [("x",), ("y",)], None]
        encoded = intern_outcomes(outcomes)
        assert len(encoded["table"]) == 2
        assert restore_outcomes(encoded) == outcomes

    def test_interning_shrinks_repetitive_payloads(self):
        # Equal but *distinct* answer sets: pickle's identity memo cannot
        # collapse these — interning by equality is what shrinks them.
        outcomes = [
            frozenset({(f"v{i}", i) for i in range(50)}) for _ in range(200)
        ]
        plain = len(pickle.dumps({"outcomes": outcomes}))
        interned = len(pickle.dumps({"outcomes_interned": intern_outcomes(outcomes)}))
        assert len(intern_outcomes(outcomes)["table"]) == 1
        assert interned < plain / 10


class TestTransportStatsRegistry:
    def test_record_aggregate_discard(self):
        from repro.diagnostics import (
            aggregated_transport_stats,
            cache_report,
            discard_transport_stats,
            record_transport_stats,
            reset_transport_stats,
        )

        reset_transport_stats()
        record_transport_stats("c1/w1", {"bytes_sent": 10, "frames_sent": 2})
        record_transport_stats("c1/w2", {"bytes_sent": 5, "frames_sent": 1})
        record_transport_stats("c2/w1", {"bytes_sent": 7, "frames_sent": 1})
        total = aggregated_transport_stats()
        assert total == {"bytes_sent": 22, "frames_sent": 4}
        assert cache_report().transport == total
        # Closing campaign c1 evicts only its entries.
        discard_transport_stats("c1/")
        assert aggregated_transport_stats() == {"bytes_sent": 7, "frames_sent": 1}
        reset_transport_stats()
        assert cache_report().transport == {}


class TestSpeculativeLease:
    def test_idle_worker_gets_duplicate_of_slowest_shard(self):
        table = LeaseTable(start=0, count=4, shard_size=2, speculate=True)
        slow = table.checkout("straggler", wait=False)
        fast = table.checkout("fast", wait=False)
        table.complete(fast, ["c", "d"])
        duplicate = table.checkout("fast", wait=False)
        assert duplicate is not None
        assert duplicate.speculative
        assert duplicate.shard_id == slow.shard_id
        assert table.complete(duplicate, ["a", "b"]) is True
        assert table.speculation_wins == 1
        # The straggler finishing later is the dropped duplicate.
        assert table.complete(slow, ["a", "b"]) is False
        assert table.assemble() == ["a", "b", "c", "d"]

    def test_at_most_one_duplicate_per_shard(self):
        table = LeaseTable(start=0, count=2, shard_size=2, speculate=True)
        table.checkout("straggler", wait=False)
        first = table.checkout("idle-1", wait=False)
        assert first is not None and first.speculative
        assert table.checkout("idle-2", wait=False) is None

    def test_primary_holder_never_self_speculates(self):
        table = LeaseTable(start=0, count=2, shard_size=2, speculate=True)
        lease = table.checkout("only", wait=False)
        assert lease is not None
        assert table.checkout("only", wait=False) is None

    def test_speculative_failure_does_not_requeue_or_burn_attempts(self):
        table = LeaseTable(
            start=0, count=2, shard_size=2, max_attempts=2, speculate=True
        )
        primary = table.checkout("straggler", wait=False)
        duplicate = table.checkout("flaky", wait=False)
        assert duplicate.speculative
        table.release(duplicate, "speculator died")
        # The shard is still exclusively the primary's: not pending, not
        # failed, attempts untouched.
        assert primary.attempts == 1
        assert table.checkout("straggler", wait=False) is None
        table.complete(primary, ["x", "y"])
        assert table.assemble() == ["x", "y"]
        assert any("speculative" in line for line in table.failure_log())

    def test_speculation_disabled_by_default(self):
        table = LeaseTable(start=0, count=2, shard_size=2)
        table.checkout("straggler", wait=False)
        assert table.checkout("idle", wait=False) is None


class TestLeaseTable:
    def test_shards_cover_range_exactly(self):
        table = LeaseTable(start=10, count=23, shard_size=10)
        leases = []
        while True:
            lease = table.checkout("w", wait=False)
            if lease is None:
                break
            leases.append(lease)
            table.complete(lease, [None] * lease.count)
        assert [(l.start, l.count) for l in leases] == [(10, 10), (20, 10), (30, 3)]
        assert table.done

    def test_assemble_orders_by_draw_index(self):
        table = LeaseTable(start=0, count=6, shard_size=2)
        first = table.checkout("a", wait=False)
        second = table.checkout("b", wait=False)
        third = table.checkout("c", wait=False)
        # Complete out of order.
        table.complete(third, ["e", "f"])
        table.complete(first, ["a", "b"])
        table.complete(second, ["c", "d"])
        assert table.assemble() == ["a", "b", "c", "d", "e", "f"]

    def test_release_requeues_for_other_workers(self):
        table = LeaseTable(start=0, count=4, shard_size=4)
        lease = table.checkout("dying", wait=False)
        table.release(lease, "killed")
        replacement = table.checkout("healthy", wait=False)
        assert replacement is lease
        assert replacement.attempts == 2
        table.complete(replacement, [1, 2, 3, 4])
        assert table.assemble() == [1, 2, 3, 4]

    def test_duplicate_completion_dropped(self):
        table = LeaseTable(start=0, count=2, shard_size=2)
        lease = table.checkout("slow", wait=False)
        assert table.complete(lease, ["x", "y"]) is True
        assert table.complete(lease, ["x", "y"]) is False
        assert table.assemble() == ["x", "y"]

    def test_exhausted_attempts_fail_the_table(self):
        table = LeaseTable(start=0, count=2, shard_size=2, max_attempts=2)
        for _ in range(2):
            lease = table.checkout("w", wait=False)
            table.release(lease, "boom")
        assert table.checkout("w", wait=False) is None
        with pytest.raises(DistributedSamplingError, match="boom"):
            table.assemble()

    def test_wrong_outcome_count_rejected(self):
        table = LeaseTable(start=0, count=5, shard_size=5)
        lease = table.checkout("w", wait=False)
        with pytest.raises(DistributedSamplingError, match="draw-index contract"):
            table.complete(lease, [1, 2])

    def test_blocked_checkout_wakes_on_release(self):
        table = LeaseTable(start=0, count=3, shard_size=3)
        lease = table.checkout("first", wait=False)
        picked = {}

        def second_worker():
            picked["lease"] = table.checkout("second")
            if picked["lease"] is not None:
                table.complete(picked["lease"], [0, 1, 2])

        thread = threading.Thread(target=second_worker)
        thread.start()
        table.release(lease, "first worker died")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert picked["lease"] is not None
        assert table.done


class TestSubstreams:
    def test_draw_rng_is_pure_in_seed_key_index(self):
        assert draw_rng(7, "g", 3).random() == draw_rng(7, "g", 3).random()
        assert draw_rng(7, "g", 3).random() != draw_rng(7, "g", 4).random()
        assert draw_rng(7, "g", 3).random() != draw_rng(8, "g", 3).random()
        assert draw_rng(7, "g", 3).random() != draw_rng(7, "h", 3).random()

    def test_campaign_rng_at_matches_module_helper(self):
        campaign = SamplingCampaign(seed=99)
        assert (
            campaign.rng_at(("k",), 5).random() == draw_rng(99, ("k",), 5).random()
        )

    def test_claim_draws_advances_and_checkpoints(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        campaign = SamplingCampaign(fingerprint="f", seed=1, checkpoint_path=path)
        assert campaign.claim_draws(10) == 0
        assert campaign.claim_draws(5) == 10
        campaign.save_checkpoint()
        resumed = SamplingCampaign.resume(path, "f")
        assert resumed.claim_draws(1) == 15


class TestShardContext:
    def test_content_addressed_ids(self):
        a = ShardContext.create("chain", {"seed": 1, "facts": ("x",)})
        b = ShardContext.create("chain", {"seed": 1, "facts": ("x",)})
        c = ShardContext.create("chain", {"seed": 2, "facts": ("x",)})
        assert a.context_id == b.context_id
        assert a.context_id != c.context_id

    def test_unpicklable_payload_rejected_loudly(self):
        with pytest.raises(ValueError, match="cannot be distributed"):
            ShardContext.create("chain", {"fn": lambda: None})

    def test_contexts_survive_pickling(self):
        context = ShardContext.create("chain", {"seed": 3})
        restored = pickle.loads(pickle.dumps(context))
        assert restored == context


class TestInlineTransport:
    def test_unknown_kind_is_worker_error_material(self):
        transport = InlineTransport()
        context = ShardContext.create("nonsense", {"seed": 0})
        with pytest.raises(ValueError, match="unknown shard context kind"):
            transport.run_shard(context, 0, 0, 1)
        transport.close()
