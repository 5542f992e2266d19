"""Vectorized, bit-exact CPython string seeding of MT19937.

The campaign determinism contract pins every draw to a *string-seeded*
``random.Random`` (``repro.campaign.draw_rng``): draw ``i`` of group
``g`` is a pure function of ``(seed, g, i)``.  That purity is what makes
draws shippable to any worker — but it also means a batch of ``n`` draws
pays ``n`` full MT19937 initializations (two 624-step key-mixing passes
each) before a single coin is flipped.  Once the walks themselves are
table-compiled (:mod:`repro.core.columnar`), that seeding dominates the
per-draw cost of a large range, and this module pays it in one pass.
The pass is 1,247 sequential numpy row steps whatever the batch size, a
fixed ~10 ms, so it only wins above a crossover of a few thousand seeds
(``repro.sql.sampler.MIN_VECTOR_SEEDS``); smaller ranges seed each draw
with ``random.Random`` instead.

This module performs the exact CPython seeding pipeline for a *batch* of
seed strings as numpy column operations:

- ``seed(s, version=2)`` reduces the string to an integer:
  ``int.from_bytes(s.encode() + sha512(s.encode()).digest(), "big")``;
- the integer is split into 32-bit words, least-significant first, and
  fed to ``init_by_array`` (``init_genrand(19650218)`` + the two mixing
  passes with multipliers 1664525 and 1566083941);
- the first ``count`` output words come from a *partial* twist of the
  generator (valid for up to ``N - M = 227`` words) followed by the
  standard tempering.

The batch state is laid out ``(624, n)`` row-major so each of the 1247
sequential mixing steps touches one contiguous row; the per-step key
addends are pre-tiled into the same transposed layout.  Every word
returned equals ``random.Random(seed).getrandbits(32)`` for the same
position — asserted bit-for-bit by ``tests/unit/test_mt19937.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the availability gate
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

N = 624
M = 397
MATRIX_A = 0x9908B0DF
UPPER_MASK = 0x80000000
LOWER_MASK = 0x7FFFFFFF

#: Longest prefix of the output stream a single partial twist can
#: produce: ``new[k]`` reads ``old[k + M]``, so ``k + M`` must stay
#: inside the untwisted state.
MAX_PARTIAL_WORDS = N - M

_INIT_MULT = 1812433253
_PASS1_MULT = 1664525
_PASS2_MULT = 1566083941

_BASE_STATE = None


def available() -> bool:
    """Whether the vectorized path can run (numpy importable)."""
    return _np is not None


def _base_state():
    """``init_genrand(19650218)`` — seed-independent, computed once."""
    global _BASE_STATE
    if _BASE_STATE is None:
        mt = [19650218]
        for i in range(1, N):
            prev = mt[i - 1]
            mt.append((_INIT_MULT * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
        _BASE_STATE = _np.array(mt, dtype=_np.uint32)
    return _BASE_STATE


def _key_matrix(seeds: Sequence[bytes]) -> Tuple["_np.ndarray", int]:
    """``(key_words, key_length)`` for same-length seed byte strings.

    ``key_words`` has shape ``(len(seeds), key_length)`` with word 0 the
    least significant — exactly the array CPython's ``init_by_array``
    receives.  All *seeds* must share one byte length.
    """
    length = len(seeds[0]) + 64  # sha512 digest appended
    key_length = (length + 3) // 4
    pad = (-length) % 4
    prefix = b"\x00" * pad
    joined = b"".join(
        prefix + text + hashlib.sha512(text).digest() for text in seeds
    )
    words = _np.frombuffer(joined, dtype=">u4").reshape(len(seeds), key_length)
    # Big-endian bytes give most-significant-word-first; init_by_array
    # wants least-significant-first.
    return words[:, ::-1].astype(_np.uint32), key_length


def _mix(state, addends, key_length: int) -> None:
    """The two ``init_by_array`` passes, in place on ``(624, n)`` rows."""
    mult1 = _np.uint32(_PASS1_MULT)
    mult2 = _np.uint32(_PASS2_MULT)
    i = 1
    for step in range(max(N, key_length)):
        prev = state[i - 1]
        tmp = prev ^ (prev >> _np.uint32(30))
        tmp *= mult1
        state[i] ^= tmp
        state[i] += addends[step % N] if key_length <= N else addends[step]
        i += 1
        if i >= N:
            state[0] = state[N - 1]
            i = 1
    for _ in range(N - 1):
        prev = state[i - 1]
        tmp = prev ^ (prev >> _np.uint32(30))
        tmp *= mult2
        state[i] ^= tmp
        state[i] -= _np.uint32(i)
        i += 1
        if i >= N:
            state[0] = state[N - 1]
            i = 1
    state[0] = _np.uint32(0x80000000)


def _output_words(state, count: int):
    """Partial twist + temper: the first *count* ``getrandbits(32)`` words."""
    upper = _np.uint32(UPPER_MASK)
    lower = _np.uint32(LOWER_MASK)
    one = _np.uint32(1)
    y = (state[:count] & upper) | (state[1 : count + 1] & lower)
    out = state[M : M + count] ^ (y >> one) ^ ((y & one) * _np.uint32(MATRIX_A))
    out ^= out >> _np.uint32(11)
    out ^= (out << _np.uint32(7)) & _np.uint32(0x9D2C5680)
    out ^= (out << _np.uint32(15)) & _np.uint32(0xEFC60000)
    out ^= out >> _np.uint32(18)
    return out


def batch_words(seeds: Sequence[bytes], count: int) -> Optional["_np.ndarray"]:
    """The first *count* 32-bit words of ``random.Random(seed)`` per seed.

    *seeds* are the **encoded** seed strings (``str.encode()``); column
    ``j`` of the returned ``(count, len(seeds))`` uint32 array holds the
    words ``random.Random(seeds[j].decode()).getrandbits(32)`` would
    produce, in order.  Returns ``None`` when the batch cannot be
    vectorized (numpy missing, *count* beyond the partial-twist window,
    or a seed whose key exceeds the 624-word state) — callers fall back
    to per-instance ``random.Random`` construction.
    """
    if _np is None or not seeds:
        return None
    if not 0 < count <= MAX_PARTIAL_WORDS:
        return None
    buckets: Dict[int, Tuple[List[int], List[bytes]]] = {}
    for position, text in enumerate(seeds):
        positions, texts = buckets.setdefault(len(text), ([], []))
        positions.append(position)
        texts.append(text)
    base = _base_state()
    with _np.errstate(over="ignore"):
        # Any key of <= 624 words runs the same 1247-step schedule (the
        # key length only changes *which* addend each step adds), so all
        # length buckets share one wide state matrix and one mixing pass
        # — per-step Python overhead amortizes over the whole batch.
        addends = _np.empty((N, len(seeds)), dtype=_np.uint32)
        for positions, texts in buckets.values():
            keys, key_length = _key_matrix(texts)
            if key_length > N:
                return None
            # Per-step addends ``key[j] + j`` tiled into the transposed
            # (step-major) layout so each mixing step reads one
            # contiguous row.
            block = keys + _np.arange(key_length, dtype=_np.uint32)[None, :]
            block_t = _np.ascontiguousarray(block.T)
            reps = -(-N // key_length)
            addends[:, positions] = _np.tile(block_t, (reps, 1))[:N]
        state = _np.empty((N, len(seeds)), dtype=_np.uint32)
        state[:] = base[:, None]
        _mix(state, addends, N)
        return _np.ascontiguousarray(_output_words(state, count))


class WordStream:
    """Emulated ``random.Random`` consumption over a precomputed column.

    Only the primitives the draw paths use: ``getrandbits(k <= 32)``
    consumes exactly one word (``word >> (32 - k)``), and ``randbelow``
    replays CPython's rejection loop.  Raises :class:`IndexError` when
    the column is exhausted — callers treat that as a per-instance
    fallback signal, never an error.
    """

    __slots__ = ("words", "cursor")

    def __init__(self, words: Sequence[int]) -> None:
        self.words = words
        self.cursor = 0

    def getrandbits(self, k: int) -> int:
        word = int(self.words[self.cursor])
        self.cursor += 1
        return word >> (32 - k)

    def randbelow(self, n: int) -> int:
        """``Random._randbelow_with_getrandbits(n)`` over the column."""
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randrange(self, n: int) -> int:
        """``Random.randrange(n)`` for a positive int bound."""
        return self.randbelow(n)
