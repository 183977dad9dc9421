"""``_columns.csv_text`` writes what one ``repr`` call per cell writes, on every block of floats."""

import math
from unittest import mock

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as hs

from beamdiv import _columns
from beamdiv._columns import csv_text
from beamdiv.sim import _CSV_BLOCK_ROWS


def _row_wise(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
_NAMED = np.array(
    # A power of two has a gap below half the gap above it.
    [v for k in range(-30, 61) for v in (2.0**k, math.nextafter(2.0**k, 0.0))]
    # repr switches to exponent notation below 1e-4 and from 1e16; 9.999999999999999e-06
    # and its kind roll over into the next decade.
    + [v for k in range(-7, 18) for v in _neighbours(10.0**k)]
    + [9.999999999999999e-06, 9.999999999999999e-05, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123.456, 1e22, 1e23]
    # Two shortest candidates equally near: 1000000000000000.25 lies midway between ...2 and ...3,
    # and repr takes the even last digit.
    + [1000000000000000.25, 1000000000000000.75]
    + [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -math.nan, math.nan, _NAN_PAYLOAD,
       math.inf]
)
_NAMED = np.concatenate([_NAMED, -_NAMED])


def test_named_cells():
    assert csv_text(_NAMED[:, np.newaxis]) == _row_wise(_NAMED[:, np.newaxis])
    rows = _NAMED[: len(_NAMED) // 9 * 9].reshape(-1, 9)
    assert csv_text(rows) == _row_wise(rows)


def _magnitudes(seed):
    """64 seeded floats with 17 random digits, across and just beyond the kernel's range [1e-6, 1e17)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, 64) * 10.0 ** rng.integers(-8, 19, 64)


def _halfway_prone(seed):
    """64 seeded floats of 7e13 to 1e17 with few fraction bits, which often lie exactly halfway
    between their two nearest shortest candidates."""
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.integers(2**52, 2**53, 64).astype(np.float64), rng.integers(-6, 5, 64))


_ROWS = hs.sampled_from([0, 1, 2, 3, _CSV_BLOCK_ROWS])
_FLOATS = (
    hs.lists(hs.integers(-(2**63), 2**63 - 1), min_size=1).map(lambda bits: np.array(bits, np.int64).view(np.float64))
    | hs.lists(hs.floats(), min_size=1).map(np.array)
    | hs.integers(0, 2**32 - 1).map(_magnitudes)
    | hs.integers(0, 2**32 - 1).map(_halfway_prone)
)


@given(rows=_ROWS, columns=hs.integers(1, 9), pool=_FLOATS)
def test_equals_one_call_per_element(rows, columns, pool):
    """Raw 64-bit patterns, ``hs.floats()`` and seeded magnitudes across the kernel's range, tiled into a block."""
    block = np.resize(pool, (rows, columns))
    in_range = (np.abs(block) >= 1e-6) & (np.abs(block) < 1e17)
    event("every cell in the kernel's range" if np.all(in_range) else "some cells left to repr")
    assert csv_text(block) == _row_wise(block)


@given(hs.lists(_FLOATS, min_size=1, max_size=9), _ROWS)
def test_a_table_equals_its_columns(pools, rows):
    table = np.stack([np.resize(pool, rows) for pool in pools], axis=1)
    columns = [csv_text(table[:, [j]]).splitlines() for j in range(table.shape[1])]
    assert csv_text(table) == "".join(",".join(cells) + "\n" for cells in zip(*columns))


def test_a_strided_block_equals_its_copy():
    block = np.arange(36.0).reshape(6, 6) / 7.0
    assert csv_text(block[::2, 1::2]) == _row_wise(block[::2, 1::2])


def test_cells_in_range_are_not_left_to_repr():
    # Only NaN, infinities and magnitudes outside [1e-6, 1e17) fall back to repr.
    block = np.concatenate([f(seed) for seed in range(8) for f in (_magnitudes, _halfway_prone)]).reshape(-1, 8)
    block = np.where((np.abs(block) >= 1e-6) & (np.abs(block) < 1e17), block, 0.0)
    with mock.patch.object(_columns, "_splice_repr", side_effect=AssertionError("a cell in range went to repr")):
        assert csv_text(block) == _row_wise(block)
