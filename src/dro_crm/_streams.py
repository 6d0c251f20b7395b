"""Per-record random streams, computed for many records at once.

Row k of `record_uniforms(seed, stream, replay_ids, example_ids, q)` equals
``np.random.default_rng(np.random.SeedSequence((seed, stream, replay_ids[k],
example_ids[k]))).random(q)`` bit for bit.  It runs numpy's SeedSequence
hash on uint32 columns (one entry per record) and the PCG64 128-bit LCG on
pairs of uint64 limbs, so no per-record Python object is built.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractViolation

_ID_LIMIT = 2 ** 32
# SeedSequence: pool size, hashmix / mix constants, right shift
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64 default multiplier as high and low limbs; 32-bit halves of the low limb
_MUL_HI, _MUL_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MUL_LO0, _MUL_LO1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_ONE = np.uint64(1)


def _int_words(value, name: str) -> list:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence
    splits it (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ContractViolation(f"{name} must be a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _id_column(ids, name: str) -> np.ndarray:
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= _ID_LIMIT):
        raise ContractViolation(f"{name} ids must lie in [0, 2**32)")
    return ids.astype(np.uint32)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash: each call hashes a uint32 column with the next
    hash constant of the sequence hash_const * mult**k."""
    def hash_column(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)
    return hash_column


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _seed_pool(entropy: list) -> list:
    """SeedSequence.mix_entropy over uint32 columns: the 4-word pool."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64) as four uint64 columns."""
    hash_column = _hasher(_INIT_B, _MULT_B)
    words = [hash_column(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return [words[2 * k] | (words[2 * k + 1] << _S32) for k in range(_POOL)]


def _add128(hi, lo, add_hi, add_lo):
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo).astype(np.uint64), out_lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128."""
    lo0, lo1 = lo & _M32, lo >> _S32
    p00, p01 = lo0 * _MUL_LO0, lo0 * _MUL_LO1
    p10, p11 = lo1 * _MUL_LO0, lo1 * _MUL_LO1
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    carry_hi = p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return _add128(carry_hi + lo * _MUL_HI + hi * _MUL_LO, lo * _MUL_LO, inc_hi, inc_lo)


def record_uniforms(seed: int, stream: int, replay_ids, example_ids, q: int) -> np.ndarray:
    """(len(example_ids), q) uniforms in [0, 1): row k is the first q doubles
    of the record stream (seed, stream, replay_ids[k], example_ids[k])."""
    key = [np.array([w], dtype=np.uint32)
           for w in _int_words(seed, "seed") + _int_words(stream, "stream")]
    entropy = key + [_id_column(replay_ids, "replay"), _id_column(example_ids, "example")]
    seed_hi, seed_lo, seq_hi, seq_lo = _generate_state(_seed_pool(entropy))
    inc_hi = (seq_hi << _ONE) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << _ONE) | _ONE
    # PCG64 seeding: one step from state 0 (which gives inc), add the seed, step.
    hi, lo = _step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    out = np.empty((len(lo), q))
    for j in range(q):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, j] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out
