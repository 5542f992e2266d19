"""The coordinator/worker wire protocol (length-prefixed JSON + pickle).

Every message is one *frame*:

====================  =======================================================
bytes                 meaning
====================  =======================================================
``4``                 magic ``b"RPW2"`` (protocol version 2)
``4``                 header length ``H`` (big-endian unsigned)
``4``                 blob length ``B`` (big-endian unsigned)
``H``                 UTF-8 JSON header — always an object with a ``"type"``
                      key plus small scalar fields (ids, ranges, counts)
``B``                 optional pickle blob carrying the Python payload
                      (shard contexts, outcome lists, cache counters)
====================  =======================================================

Control flow lives in the JSON header so a frame is inspectable without
unpickling; bulk payloads (facts, schemas, answer sets) ride the pickle
blob.  Message types:

- ``hello`` / ``welcome`` — connection handshake (campaign tag, worker
  name, protocol version);
- ``context`` / ``context_ok`` — ship a :class:`ShardContext` once per
  worker; the worker builds and caches the warm sampling runtime;
- ``run`` — execute draws ``[start, start + count)`` of a context;
- ``heartbeat`` — sent by the worker *while computing* a shard, so the
  coordinator's lease timer distinguishes a slow shard from a dead
  worker;
- ``result`` — the shard's outcomes (blob) plus the worker's cache
  counters;
- ``error`` — a Python exception from the worker; ``fatal`` marks
  errors that re-leasing cannot fix (e.g. a failing repair sequence),
  which the coordinator re-raises instead of retrying;
- ``ping`` / ``pong`` — liveness probe;
- ``drain`` / ``drain_ok`` — ask the worker to drain gracefully: stop
  accepting, finish (or hand back) in-flight shards, then exit its
  serve loop (the frame-level twin of SIGTERM, used by the supervisor);
- ``shutdown`` — ask the worker process to exit its serve loop.

Frame features
--------------
The coordinator and its workers are one deployment, so version 2 has no
optional features and nothing to negotiate.  Every frame carries:

- a header checksum ``"hcrc"``, always the last header field: the CRC32
  of the canonical header JSON with the ``"hcrc"`` value itself set to
  ``0``.  The receiver checks it against the header bytes *as shipped*,
  so a flip that still decodes to the same header (an escape's hex
  digit changing case, say) is caught too;
- when it has a blob, a blob checksum ``"crc"``: the CRC32 of the blob
  *as shipped* (after compression).  A frame without ``hcrc``, a blob
  without ``crc``, or a ``crc`` without a blob raises
  :class:`FrameIntegrityError` — the last two catch a corrupted blob
  length in the fixed prefix, which no checksum covers.  So a bit
  flipped anywhere in a frame is a transient fault (drop the
  connection, re-lease the shard), never a pickle traceback or a
  silently re-routed ``start``/``count``;
- zlib compression (level 1) of any pickle blob of at least
  :data:`COMPRESS_THRESHOLD` bytes, marked ``"enc": "zlib"`` with the
  raw size in ``"raw"``; compression that does not shrink the blob is
  discarded.

On top of the frame layer:

- frames that belong to a campaign (``context``/``run``/``ping``/
  ``drain`` requests and every frame answering them) carry a
  ``"campaign"`` header field — the coordinator's campaign id, echoed
  back by the worker — so a worker serving many coordinators keeps
  their heartbeats and results apart, and a transport asserts that each
  reply answers its own campaign;
- a ``run`` frame whose shard has a deadline carries ``"deadline"``,
  the *remaining* wall-clock budget in seconds (remaining, not
  absolute: monotonic clocks do not survive a socket).  The worker
  abandons the shard with a ``deadline_expired`` error once the budget
  is gone.  ``error`` frames may carry ``"retriable"``,
  ``"retry_after"`` (seconds, for backpressure rejections),
  ``"deadline_expired"``, and ``"draining"`` so the coordinator can
  tell back-off-and-retry from re-lease-elsewhere from give-up;
- ``result`` bodies are ``{"outcomes_interned": ..., "cache_stats":
  ...}``: answer sets are dictionary-encoded (:func:`intern_outcomes`)
  so each distinct one ships once;
- while the worker's own telemetry is on (``REPRO_METRICS``), it
  attaches its cumulative ``ocqa_worker_*`` snapshot (see
  :mod:`repro.obs.metrics`) to ``result`` bodies (``"metrics"``) and a
  snapshot to ``heartbeat`` headers; a parent whose telemetry is off
  ignores them.

A peer speaking another version (e.g. a version-1 ``RPW1`` build) is
refused by its magic with a :class:`ProtocolError` naming both versions.

Pickle is trusted here by design: the coordinator and its workers are
one deployment (same codebase, same operator), exactly like the stdlib
``multiprocessing`` transport this subsystem generalizes.  Do not expose
a worker port to untrusted networks.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Protocol magic + version; bumped on any frame-layout change.
MAGIC = b"RPW2"

#: The fixed frame prefix: magic, header length, blob length.
FRAME_PREFIX = struct.Struct("!4sII")

#: Hard cap on a single frame's payload (header + blob), as a guard
#: against a corrupt or foreign byte stream being read as a length.
MAX_FRAME_BYTES = 1 << 30

#: Pickle blobs at or above this size are zlib-compressed.  Below it the
#: CPU cost outweighs the shipping win on a LAN: profiling the
#: protocol's actual small frames (headers, heartbeats, sub-8K result
#: bodies) showed deflate overhead without a meaningful byte win.
COMPRESS_THRESHOLD = 8192

#: zlib level for compressed blobs.  Level 1 keeps ~90% of level 6's
#: ratio on interned outcome streams at a small fraction of the CPU (the
#: streams are dictionary-coded already, so deeper match searching buys
#: almost nothing).
COMPRESS_LEVEL = 1


class ProtocolError(RuntimeError):
    """The byte stream is not speaking this protocol (bad magic, oversize
    frame, truncated payload, or a non-object header)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection mid-frame (or before one)."""


class FrameIntegrityError(ProtocolError):
    """A frame failed its integrity checks — its header does not decode
    or fails its CRC32 (``hcrc``), or its blob fails or lacks its CRC32
    (``crc``) — meaning bytes were corrupted in flight.  A transient
    fault: the transports treat it exactly like a dropped connection —
    re-lease and reconnect — never as a payload error."""


@dataclass
class FrameStats:
    """Byte accounting for one encoded/decoded frame.

    ``payload_raw`` is the pickle size before compression,
    ``payload_wire`` the blob size actually shipped; they differ only on
    compressed frames.  Transports accumulate these into their
    shipped-byte counters (see
    :meth:`repro.distributed.transport.SocketTransport.stats`).
    """

    frame_bytes: int = 0
    payload_raw: int = 0
    payload_wire: int = 0
    compressed: bool = False


def _canonical(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def _hcrc_field(hcrc: int) -> bytes:
    """The closing bytes of a canonical header whose last field is *hcrc*."""
    return b'"hcrc":%d}' % hcrc


_HCRC_ZERO = _hcrc_field(0)


def encode_frame(header: dict, payload: Any = None) -> bytes:
    """Serialize one frame (header JSON + optional pickled *payload*).

    See :func:`encode_frame_ex` for the byte-accounting variant.
    """
    return encode_frame_ex(header, payload)[0]


def encode_frame_ex(header: dict, payload: Any = None) -> Tuple[bytes, FrameStats]:
    """Serialize one frame; returns ``(bytes, stats)``.

    A pickle blob of at least :data:`COMPRESS_THRESHOLD` bytes is
    zlib-compressed when that shrinks it.  The header gains the blob's
    ``"crc"`` (when there is a blob) and then its own ``"hcrc"``.
    """
    blob = b""
    raw_len = 0
    compressed = False
    if payload is not None:
        blob = pickle.dumps(payload)
        raw_len = len(blob)
        if raw_len >= COMPRESS_THRESHOLD:
            candidate = zlib.compress(blob, COMPRESS_LEVEL)
            if len(candidate) < raw_len:
                blob = candidate
                header = {**header, "enc": "zlib", "raw": raw_len}
                compressed = True
        header = {**header, "crc": zlib.crc32(blob)}
    header = {key: value for key, value in header.items() if key != "hcrc"}
    header["hcrc"] = 0
    zeroed = _canonical(header)
    header_bytes = zeroed[: -len(_HCRC_ZERO)] + _hcrc_field(zlib.crc32(zeroed))
    frame = (
        FRAME_PREFIX.pack(MAGIC, len(header_bytes), len(blob))
        + header_bytes
        + blob
    )
    return frame, FrameStats(
        frame_bytes=len(frame),
        payload_raw=raw_len,
        payload_wire=len(blob),
        compressed=compressed,
    )


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} byte(s) of a "
                "frame outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(
    sock: socket.socket, header: dict, payload: Any = None
) -> FrameStats:
    """Send one frame over *sock* (blocking, complete); returns its
    :class:`FrameStats` for byte accounting."""
    frame, stats = encode_frame_ex(header, payload)
    sock.sendall(frame)
    return stats


def recv_message(sock: socket.socket) -> Tuple[dict, Any]:
    """Receive one frame; returns ``(header, payload)``.

    See :func:`recv_message_ex` for the byte-accounting variant.
    """
    header, payload, _stats = recv_message_ex(sock)
    return header, payload


def _bad_magic(magic: bytes) -> ProtocolError:
    if magic[:3] == MAGIC[:3]:
        theirs = magic.decode("ascii", "replace")
        ours = MAGIC.decode("ascii")
        return ProtocolError(
            f"peer speaks wire protocol {theirs}, this build speaks {ours}; "
            "upgrade the coordinator and its workers together"
        )
    return ProtocolError(f"bad frame magic {magic!r}; peer is not a repro worker")


def recv_message_ex(sock: socket.socket) -> Tuple[dict, Any, FrameStats]:
    """Receive one frame; returns ``(header, payload, stats)``.

    *payload* is ``None`` when the frame carried no blob.  Compressed
    frames (``"enc": "zlib"`` in the header) are transparently inflated.
    Raises :class:`ConnectionClosed` on EOF, :class:`FrameIntegrityError`
    on a frame corrupted past the prefix and :class:`ProtocolError` on
    any other malformed frame; ``socket.timeout`` propagates to the
    caller (the transports turn it into lease-expiry handling).  Once
    the blob's CRC holds, its bytes are exactly what the sender
    produced, so decoding them is not guarded further.
    """
    magic, header_len, blob_len = FRAME_PREFIX.unpack(
        _recv_exact(sock, FRAME_PREFIX.size)
    )
    if magic != MAGIC:
        raise _bad_magic(magic)
    if header_len + blob_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {header_len + blob_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap; refusing to read it"
        )
    # Every version-2 sender writes a JSON object carrying its hcrc, so a
    # header that does not decode to one was corrupted in flight.
    header_bytes = _recv_exact(sock, header_len)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameIntegrityError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameIntegrityError(f"frame header is not an object: {header!r}")
    # The CRC covers the bytes as shipped, not a re-encoding of the
    # decoded header: JSON has several spellings of one value.
    expected_hcrc = header.get("hcrc")
    field = (
        _hcrc_field(expected_hcrc)
        if type(expected_hcrc) is int and expected_hcrc >= 0
        else None
    )
    if (
        field is None
        or not header_bytes.endswith(field)
        or zlib.crc32(header_bytes[: -len(field)] + _HCRC_ZERO) != expected_hcrc
    ):
        raise FrameIntegrityError(
            "frame header failed its CRC32 check (hcrc missing or wrong); "
            "bytes were corrupted in flight"
        )
    if "type" not in header:
        raise ProtocolError(f"frame header is not a typed object: {header!r}")
    expected_crc = header.get("crc")
    if (expected_crc is None) != (blob_len == 0):
        raise FrameIntegrityError(
            f"frame blob length {blob_len} disagrees with its checksum "
            f"{expected_crc!r}; the frame prefix was corrupted in flight"
        )
    payload = None
    raw_len = 0
    compressed = False
    if blob_len:
        blob = _recv_exact(sock, blob_len)
        actual_crc = zlib.crc32(blob)
        if actual_crc != expected_crc:
            raise FrameIntegrityError(
                f"frame blob failed its CRC32 check (expected "
                f"{expected_crc}, got {actual_crc}); bytes were "
                "corrupted in flight"
            )
        encoding = header.get("enc")
        if encoding == "zlib":
            blob = zlib.decompress(blob)
            compressed = True
        elif encoding is not None:
            raise ProtocolError(f"frame blob uses unknown encoding {encoding!r}")
        raw_len = len(blob)
        payload = pickle.loads(blob)
    stats = FrameStats(
        frame_bytes=FRAME_PREFIX.size + header_len + blob_len,
        payload_raw=raw_len,
        payload_wire=blob_len,
        compressed=compressed,
    )
    return header, payload, stats


# ----------------------------------------------------------------------
# Answer-set interning
# ----------------------------------------------------------------------

def intern_outcomes(outcomes: List[Any]) -> Dict[str, Any]:
    """Dictionary-encode a shard's outcome list.

    Outcome streams are highly repetitive: on cheap draws most repairs
    yield one of a handful of distinct answer sets (often *the* full
    answer set, over and over).  Pickle's memo only collapses duplicates
    by object *identity*, so equal-but-distinct answer sets each ship in
    full.  Interning collapses them by *equality*: the result carries
    each distinct outcome once in ``"table"`` plus an index per draw in
    ``"codes"`` — typically shrinking the shipped payload by the repeat
    factor before compression even runs.

    Outcomes are keyed by their *pickled form*, not ``==``: equality
    would collapse distinct representations that compare equal (``1`` ==
    ``1.0`` == ``True``), silently changing the restored stream's value
    types and breaking the byte-identical-outcomes contract the lease
    table's duplicate drop rests on.  Pickle bytes key exactly what
    would have shipped, so restoration is representation-faithful; the
    dedup win is unaffected in practice because repeated answer sets
    come out of one deterministic evaluation path and pickle
    identically.  :func:`restore_outcomes` inverts the encoding,
    returning one table *reference* per code (safe: the sampling
    pipeline never mutates outcome objects).
    """
    table: List[Any] = []
    codes: List[int] = []
    index_of: Dict[bytes, int] = {}
    for outcome in outcomes:
        key = pickle.dumps(outcome)
        code = index_of.get(key)
        if code is None:
            code = len(table)
            index_of[key] = code
            table.append(outcome)
        codes.append(code)
    return {"table": table, "codes": codes}


def restore_outcomes(encoded: Dict[str, Any]) -> List[Any]:
    """Invert :func:`intern_outcomes`."""
    table = encoded["table"]
    return [table[code] for code in encoded["codes"]]


class WorkerError(RuntimeError):
    """An exception reported by a worker over the protocol.

    ``fatal`` means re-leasing the shard elsewhere would deterministically
    hit the same exception (the draws are index-determined), so the
    coordinator re-raises instead of retrying.  ``retriable`` marks
    overload rejections where the *same* worker will accept the shard
    shortly — ``retry_after`` is its suggested back-off in seconds.
    ``deadline_expired`` marks a shard the worker abandoned because its
    deadline had already passed.
    """

    def __init__(
        self,
        message: str,
        exception_type: Optional[str] = None,
        fatal: bool = False,
        retriable: bool = False,
        retry_after: Optional[float] = None,
        deadline_expired: bool = False,
    ) -> None:
        super().__init__(message)
        self.exception_type = exception_type
        self.fatal = fatal
        self.retriable = retriable
        self.retry_after = retry_after
        self.deadline_expired = deadline_expired
