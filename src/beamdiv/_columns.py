"""A scalar function over float columns, called once per distinct value where values repeat.

The budget's log and power terms and the CSV's ``repr`` must run as Python
scalar calls, since numpy's vectorized forms differ from ``math`` and ``**``
in the last bit on some inputs.  Their inputs often repeat: a pass is
symmetric about culmination, so geometry and rates come in mirror pairs, and
a constant jitter settles the lens, so its columns run constant.  Each
function is a pure function of its float, so one call per distinct bit
pattern gives the same output, bit for bit, as one call per element.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

# Rows per block: the CSV writer's block, and the span over which repeats are found.
BLOCK_ROWS = 1024


def per_value(fn, values: np.ndarray, *args, dtype=float) -> np.ndarray:
    """``fn(v, *args)`` for every element ``v`` of a float64 column, or of a table of columns.

    ``values`` is 1-D, or 2-D with one column per field; the result has its
    shape and ``dtype``.  Rows are taken ``BLOCK_ROWS`` at a time.  In each
    block, a column where at least a quarter of the values equal their
    neighbour or their mirror image is pooled with the other such columns,
    and ``fn`` runs once per distinct bit pattern of the pool (so ``0.0``
    and ``-0.0``, and NaNs with different payloads, stay apart); any other
    column runs ``fn`` once per element.  Either way every element is
    exactly ``fn(v, *args)``.
    """
    table = values[:, np.newaxis] if values.ndim == 1 else values
    out = np.empty(table.shape, dtype)
    extra = [repeat(arg) for arg in args]
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        results = out[start:start + BLOCK_ROWS]
        bits = block.view(np.int64)
        repeated = bits == bits[::-1]
        repeated[1:] |= bits[1:] == bits[:-1]
        pooled = (4 * repeated.sum(axis=0) >= len(block)).tolist()
        columns = [j for j, p in enumerate(pooled) if p]
        if columns:
            # np.unique(pool, return_inverse=True) would cost 17-20 us a call
            # on a 289-row pass, more than the calls it saves on a cheap term.
            pool = bits[:, columns]
            ordered = np.sort(pool, axis=None)
            distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            once = np.fromiter(map(fn, distinct.view(np.float64).tolist(), *extra), dtype, len(distinct))
            results[:, columns] = once[np.searchsorted(distinct, pool)]
        for j, p in enumerate(pooled):
            if not p:
                results[:, j] = np.fromiter(map(fn, block[:, j].tolist(), *extra), dtype, len(block))
    return out.reshape(values.shape)
