"""``_columns.per_value`` returns what one ``repr`` call per element returns, on every block the CSV writer hands it."""

import math

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as hs

from beamdiv._columns import per_value
from beamdiv.sim import _CSV_BLOCK_ROWS

_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
_CELLS = [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
          20e-6, 90e-6, 600e3, 1200e3, -30.0, 1e200]

_SIGNED = np.array([0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD])


@hs.composite
def _columns(draw):
    """A float64 column of one CSV block with the kinds of repetition a pass has, and some it does not."""
    n = draw(hs.sampled_from([0, 1, 2, 3, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS]))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    pool = np.array(draw(hs.lists(hs.sampled_from(_CELLS) | hs.floats(), min_size=1, max_size=5)))
    distinct = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
    kind = draw(hs.sampled_from(["runs", "mirrored", "constant", "distinct", "sprinkled", "same but for the bits"]))
    event(kind)
    if kind == "runs":
        column = np.repeat(pool[rng.integers(0, len(pool), n)], rng.integers(1, 60, n))[:n]
    elif kind == "mirrored":
        # A whole-block mirror, as a short pass symmetric about culmination gives.
        half = np.where(rng.random(n) < 0.2, pool[rng.integers(0, len(pool), n)], distinct)[:(n + 1) // 2]
        column = np.concatenate([half, half[:n // 2][::-1]])
    elif kind == "constant":
        column = np.full(n, pool[0])
    elif kind == "distinct":
        column = distinct
    elif kind == "same but for the bits":
        # Values equal as floats, or all NaN, that a call per value must still keep apart.
        column = _SIGNED[rng.integers(0, len(_SIGNED), n)]
    else:
        column = np.where(rng.random(n) < 0.3, pool[rng.integers(0, len(pool), n)], distinct)
    return column


@given(_columns())
def test_equals_one_call_per_element(column):
    got = per_value(repr, column[:, np.newaxis])
    assert got.dtype == object and got.shape == (len(column), 1)
    assert got[:, 0].tolist() == list(map(repr, column.tolist()))


@given(hs.lists(_columns(), min_size=1, max_size=4).map(lambda cs: [c[:min(map(len, cs))] for c in cs]))
def test_a_table_equals_its_columns(columns):
    table = np.stack(columns, axis=1)
    got = per_value(repr, table)
    assert got.shape == table.shape
    assert got.tolist() == [list(map(repr, row)) for row in table.tolist()]
