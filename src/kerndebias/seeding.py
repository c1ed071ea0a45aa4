"""Seeded uniform draws from one counter-based generator.

Every draw of the package comes from uniform(seed, label, count, start),
one stream per (seed, label): "indirect-bias-split" orders the
classifier's words, "weat-permutation" draws the Monte Carlo splits, and
"toy-demo" places the toy points.  The generator is counter based
(Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3"):
value i of a stream is a fixed function of its key and its counter
start + i + 1, so any slice of a stream can be drawn on its own.  That
function is SplitMix64 (Steele, Lea & Flood 2014, "Fast splittable
pseudorandom number generators"): the counter times the golden gamma
0x9E3779B97F4A7C15 is added to the key and passed through the SplitMix64
finalizer, and the top 53 bits of the result, times 2^-53, give a float64
in [0, 1).  The key is mix(mix(seed mod 2^64) ^ crc32(label)).

All arithmetic is on uint64 with explicit np.uint64 operands, wrapping
modulo 2^64 by design, and the one float step is exact, so a (seed,
label) gives the same values on any platform and any numpy >= 1.24.
numpy.random is never imported.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(z):
    """SplitMix64's finalizer of a uint64 scalar or array (arrays in place)."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MUL1
        z ^= z >> np.uint64(27)
        z *= _MUL2
        z ^= z >> np.uint64(31)
    return z


def _key(seed: int, label: str) -> np.uint64:
    return _mix(_mix(np.uint64(seed & _MASK)) ^ np.uint64(zlib.crc32(label.encode("utf-8"))))


def uniform(seed: int, label: str, count: int, start: int = 0) -> np.ndarray:
    """Values start .. start + count - 1 of the (seed, label) stream, as
    float64 in [0, 1)."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GOLDEN_GAMMA
        z += _key(seed, label)
    # The top 53 bits, exact in float64.
    return (_mix(z) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def permutation(seed: int, label: str, n: int) -> np.ndarray:
    """A permutation of range(n): the stable argsort of n stream values."""
    return np.argsort(uniform(seed, label, n), kind="stable")
