"""The counter-based generator: pinned values, streams, slices, permutations."""

import zlib

import numpy as np
import pytest

from kerndebias import seeding

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_bits(seed: int, label: str, count: int, start: int = 0) -> list[int]:
    """The stream's 53-bit integers in Python integer arithmetic."""
    key = _mix(_mix(seed % (1 << 64)) ^ zlib.crc32(label.encode("utf-8")))
    return [
        _mix((key + (start + i + 1) * 0x9E3779B97F4A7C15) & _MASK) >> 11
        for i in range(count)
    ]


def as_bits(values: np.ndarray) -> list[int]:
    return [int(v * 2**53) for v in values]


@pytest.mark.parametrize(
    "seed, label, expected",
    [
        (42, "weat-permutation",
         [8971460926738468, 3801595959397866, 8725622780066984, 8115788112832417]),
        (7, "indirect-bias-split",
         [676235244623993, 2710599284552021, 7680068013922463, 8234773992992772]),
    ],
)
def test_golden_values(seed, label, expected):
    assert as_bits(seeding.uniform(seed, label, 4)) == expected


@pytest.mark.parametrize("seed", [0, 1, -3, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("start", [0, 1, 12345])
def test_matches_python_integer_arithmetic(seed, start):
    got = seeding.uniform(seed, "toy-demo", 9, start=start)
    assert got.dtype == np.float64
    assert as_bits(got) == splitmix_bits(seed, "toy-demo", 9, start=start)


def test_same_stream_same_values_other_seed_or_label_differs():
    base = seeding.uniform(5, "toy-demo", 64)
    assert np.array_equal(base, seeding.uniform(5, "toy-demo", 64))
    assert not np.any(base == seeding.uniform(6, "toy-demo", 64))
    assert not np.any(base == seeding.uniform(5, "weat-permutation", 64))


def test_values_in_unit_interval():
    values = seeding.uniform(3, "weat-permutation", 100_000)
    assert values.min() >= 0.0 and values.max() < 1.0
    # Ten equal bins each hold a tenth of the draws, to about 4 sigma.
    counts = np.bincount((values * 10).astype(int), minlength=10)
    assert np.all(np.abs(counts - 10_000) < 400)


@pytest.mark.parametrize("n", [0, 1, 2, 40, 1000])
def test_permutation_is_a_permutation(n):
    perm = seeding.permutation(11, "indirect-bias-split", n)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(perm, np.argsort(seeding.uniform(11, "indirect-bias-split", n)))


def test_start_gives_a_slice_of_one_longer_draw():
    whole = seeding.uniform(9, "weat-permutation", 100)
    for start, count in ((0, 100), (0, 7), (7, 30), (37, 63), (99, 1), (50, 0)):
        part = seeding.uniform(9, "weat-permutation", count, start=start)
        assert np.array_equal(part, whole[start : start + count])
