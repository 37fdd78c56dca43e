"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Centralising the
coercion here keeps experiments reproducible: a single seed at the experiment
driver fans out into independent, stable substreams via :func:`derive_rng`.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["as_rng", "derive_rng", "indexed_rngs"]

# Type alias used across the code base in annotations.
RngLike = "int | np.random.Generator | None"

# numpy.random.SeedSequence's pool size and hash constants
# (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared stream);
    passing an ``int`` builds a fresh PCG64 stream; ``None`` draws OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(rng: np.random.Generator, *key: int | str) -> np.random.Generator:
    """Derive an independent child stream from *rng*, keyed by *key*.

    The child is independent of later draws from the parent: we spawn it from
    a seed sequence built from fresh parent entropy plus the (hashed) key, so
    two children with different keys never collide even if created in a
    different order across runs of the same seed.
    """
    material = [int(rng.integers(0, 2**32))]
    for part in key:
        if isinstance(part, str):
            # Stable string hash (Python's hash() is salted per process).
            acc = 0
            for ch in part.encode("utf-8"):
                acc = (acc * 131 + ch) % (2**31 - 1)
            material.append(acc)
        else:
            material.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(material))


def indexed_rngs(
    seed: int, n: int, stream: int
) -> Iterator[np.random.Generator]:
    """For every ``i < n``, the generator
    ``np.random.default_rng(np.random.SeedSequence([seed, i, stream]))``.

    The ``n`` seed sequences are mixed in one vectorised pass
    (:func:`_seed_words`); numpy still seeds each PCG64 from those words,
    so every generator draws exactly the bytes of its per-index twin.
    Indices must fit one 32-bit word, so ``n`` is at most ``2**32``.
    """
    if not 0 <= n <= 2**32:
        raise ValueError(f"n must be in [0, 2**32], got {n}")
    seed_words = _seed_words_type()
    words = _seed_words(seed, np.arange(n, dtype=np.uint32), stream)
    return (np.random.Generator(np.random.PCG64(seed_words(w))) for w in words)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence that hands PCG64 one precomputed seed, built on
    first use and then kept: a class is a reference cycle, so building one
    per call would leave it for the cyclic collector."""
    # numpy loads numpy.random on first use (~13 ms and ~6 MiB of
    # extension modules); importing it here, not with this module, keeps
    # both out of processes that never draw, such as `repro list`.
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """One precomputed ``generate_state(4, np.uint64)``: PCG64's seed."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}"
                )
            return self.words

    return SeedWords


def _uint32_words(value: int, name: str) -> list[int]:
    """*value* split as SeedSequence splits an int: 32-bit words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_words(seed: int, index: np.ndarray, stream: int) -> np.ndarray:
    """``SeedSequence([seed, i, stream]).generate_state(4, np.uint64)`` for
    every ``i`` of the uint32 array *index*, one row each.

    SeedSequence's hash multipliers advance the same way whatever the
    entropy, so each of its mixing steps is one uint32 array operation
    over all rows (uint32 arithmetic wraps as its C code does).
    """

    def column(word: int) -> np.ndarray:
        return np.full(index.shape, word, dtype=np.uint32)

    entropy = [
        *map(column, _uint32_words(seed, "seed")),
        index,
        *map(column, _uint32_words(stream, "stream")),
    ]
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy: fill the pool, mix every word into every
    # other, then fold in the entropy words beyond the pool.
    pool = [
        hashmix(entropy[k] if k < len(entropy) else column(0))
        for k in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words read
    # as four little-endian uint64s.
    hash_b = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * np.uint32(hash_b)
        state.append(value ^ (value >> 16))
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)
