"""Seeded randomness with a single named algorithm.

Every stochastic operation in the package draws from a numpy PCG64 generator
seeded with a 64-bit integer.  Independent streams (one per trial, per sample
size, ...) are derived from a master seed with a splitmix64 finalizer, so a
report that records ``(rng_algorithm, master_seed)`` can be replayed exactly.

A long run of trial streams is seeded by :func:`derived_generators`, which
computes numpy's seeding of each stream (SeedSequence's pool hash, then
PCG64's ``srandom``) for many seeds at once and re-seeds one
generator with the result, so the streams are the ones
:func:`make_generator` gives for each :func:`derive_seed`.
"""

from __future__ import annotations

import numpy as np

# Recorded in every report so a run can name the stream it used.
RNG_ALGORITHM = "pcg64(numpy)+splitmix64-derivation"

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy's SeedSequence (NEP 19; O'Neill's seed_seq_fe): a 4-word uint32 pool.
# Each hash call xors the next constant of a fixed sequence and multiplies by
# the one after it, so both sequences are data-independent and precomputed:
# 16 calls fill and mix the pool, 8 draw PCG64's four 64-bit seed words.
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> list[tuple[np.uint32, np.uint32]]:
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Seeds per vectorised pass: memory stays flat however many trials are drawn.
_CHUNK = 1 << 10


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalization (Steele, Lea, Flood 2014) of each uint64 entry."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _derived_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """``derive_seed(master_seed, t)`` for t in lo..hi-1, as a uint64 array."""
    start = np.uint64((master_seed + (lo + 1) * _GOLDEN) & _MASK64)
    return _splitmix64(start + np.arange(hi - lo, dtype=np.uint64) * np.uint64(_GOLDEN))


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed: splitmix64 of master + (index+1)*golden."""
    if index < 0:
        raise ValueError("derivation index must be nonnegative")
    return int(_derived_seeds(master_seed, index, index + 1)[0])


def make_generator(seed: int) -> np.random.Generator:
    """The package-wide generator for a given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def _hash(x: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    x = (x ^ consts[0]) * consts[1]
    return x ^ (x >> np.uint32(16))


def _pcg64_seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """The four uint64 words ``PCG64(seed)`` draws from ``SeedSequence(seed)``.

    A seed is two little-endian uint32 entropy words; one below 2^32 is a
    single word, which the pool hash treats exactly as a second word of 0.
    """
    pool_hash = iter(_POOL_HASH)
    pool = [_hash(w, next(pool_hash)) for w in (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32))]
    pool += [_hash(np.zeros_like(pool[0]), next(pool_hash)) for _ in range(2)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = pool[dst] * _MIX_L - _hash(pool[src], next(pool_hash)) * _MIX_R
                pool[dst] = x ^ (x >> np.uint32(16))
    words = [_hash(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_STATE_HASH)]
    return [words[i] | (words[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def derived_generators(master_seed: int, lo: int, hi: int):
    """For t in lo..hi-1, the stream of ``make_generator(derive_seed(master_seed, t))``.

    It yields one ``Generator`` object, re-seeded for each t, so a caller
    must finish drawing from it before taking the next.  The seeds and their
    PCG64 states are computed ``_CHUNK`` at a time with numpy; only PCG64's
    128-bit ``srandom`` step runs per trial, in Python integers.
    """
    gen = make_generator(0)
    for start in range(lo, hi, _CHUNK):
        words = _pcg64_seed_words(_derived_seeds(master_seed, start, min(start + _CHUNK, hi)))
        for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words)):
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen
