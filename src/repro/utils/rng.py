"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed,
an existing :class:`numpy.random.Generator`, or ``None``.  Centralizing the
coercion here keeps experiments reproducible: a benchmark fixes one seed and
all downstream components derive independent streams from it.
"""

from __future__ import annotations

import threading

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int`` seed, or an existing
    generator (returned unchanged so streams can be threaded through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int or numpy Generator, got {type(seed)!r}")


def spawn_rng(rng: np.random.Generator, n: int = 1):
    """Derive ``n`` independent child generators from ``rng``.

    Children are seeded from the parent stream, so a single top-level seed
    fans out into reproducible, non-overlapping streams for sub-components.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n)
    children = [np.random.default_rng(int(s)) for s in seeds]
    return children[0] if n == 1 else children


# numpy's SeedSequence hash-mix constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """The xor and multiplier columns of ``count`` successive SeedSequence
    hashes: each hash xors with the running constant, advances it by
    ``mult`` and multiplies by the new value, so the walk depends on the
    call count only, never on the data."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    walk = np.array(constants, dtype=np.uint32)[:, None]
    return walk[:-1], walk[1:]


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's per-word hash, one constant pair per row of ``words``."""
    words = (words ^ xor) * mult
    words ^= words >> _XSHIFT
    return words


# mix_entropy hashes the 4 pool words, then each word 3 times to mix it
# into the other three; generate_state hashes 8 words (four uint64).
_MIX_XOR, _MIX_MULT = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def pcg64_seed_states(seeds: np.ndarray) -> list:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)``
    starts from, for a batch of seeds in ``[0, 2**64)``.

    ``default_rng(seed)`` is ``PCG64(SeedSequence(seed))``.  The
    SeedSequence hash-mix runs here in uint32 arrays over every seed at
    once, one row per pool word: a seed below ``2**64`` is at most two
    entropy words, and numpy pads a short entropy with hashed zeros up
    to its 4-word pool, so every seed mixes as ``[lo, hi, 0, 0]``.
    Mixing word ``src`` into the other three never changes ``src``, so
    those three updates run as one.  PCG64's set-seed step (two LCG
    steps on 128-bit ints) runs per seed in Python ints.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, _MIX_XOR[:4], _MIX_MULT[:4])
    for src, others in enumerate(_OTHERS):
        steps = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hash(pool[src], _MIX_XOR[steps], _MIX_MULT[steps])
        mixed = _MIX_MULT_L * pool[others] - _MIX_MULT_R * hashed
        mixed ^= mixed >> _XSHIFT
        pool[others] = mixed
    words = _hash(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MULT)
    words = np.ascontiguousarray(words.T, dtype="<u4").view("<u8")
    states = []
    # Four uint64 per seed: the 128-bit seed and stream, high word first,
    # as numpy's pcg64_set_seed reads them.
    for seed_hi, seed_lo, inc_hi, inc_lo in words.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


_local = threading.local()


def standard_normal_rows(seeds: np.ndarray, dim: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(seeds[i]).standard_normal(dim)``.

    One generator per thread is re-seeded per row by setting its PCG64
    state, which skips building a SeedSequence and a Generator per seed.
    It is scratch: its state is set before every row it fills, so no
    call sees what an earlier one left behind.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    rows = np.empty((seeds.size, dim))
    generator = getattr(_local, "generator", None)
    if generator is None:
        generator = _local.generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for row, (pcg_state, inc) in zip(rows, pcg64_seed_states(seeds), strict=True):
        state["state"] = {"state": pcg_state, "inc": inc}
        bit_generator.state = state
        generator.standard_normal(out=row)
    return rows
