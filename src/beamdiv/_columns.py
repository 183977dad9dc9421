"""Scalars and float columns: one kernel at one element, and ``repr`` once per distinct value.

The budget's terms are numpy kernels over columns.  Their scalar forms run
the same kernel on a 1-element array (``one``), so a scalar and a column
give the same floats with no second code path.

The CSV's ``repr`` must run as a Python call per float.  Its inputs often
repeat: a pass is symmetric about culmination, so geometry and rates come in
mirror pairs, and a constant jitter settles the lens, so its columns run
constant.  ``repr`` is a pure function of its float, so one call per
distinct bit pattern gives the same strings as one call per element
(``per_value``).
"""

from __future__ import annotations

import numpy as np

# Rows per block: the CSV writer's block, and the span over which repeats are found.
BLOCK_ROWS = 1024


def one(kernel, value: float, *args) -> float:
    """``kernel`` at one float, run on a 1-element array: the float a column holding ``value`` gives."""
    return float(kernel(np.array([value]), *args)[0])


def per_value(fn, values: np.ndarray) -> np.ndarray:
    """``fn(v)`` for every element ``v`` of a float64 column, or of a table of columns, as objects.

    ``values`` is 1-D, or 2-D with one column per field; the result has its
    shape.  Rows are taken ``BLOCK_ROWS`` at a time.  In each block, a
    column where at least a quarter of the values equal their neighbour or
    their mirror image is pooled with the other such columns, and ``fn``
    runs once per distinct bit pattern of the pool (so ``0.0`` and ``-0.0``,
    and NaNs with different payloads, stay apart); any other column runs
    ``fn`` once per element.  Either way every element is exactly ``fn(v)``.
    """
    table = values[:, np.newaxis] if values.ndim == 1 else values
    out = np.empty(table.shape, object)
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
            # on a 289-row pass, more than the calls it saves.
            pool = bits[:, columns]
            ordered = np.sort(pool, axis=None)
            distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            once = np.fromiter(map(fn, distinct.view(np.float64).tolist()), object, len(distinct))
            results[:, columns] = once[np.searchsorted(distinct, pool)]
        for j, p in enumerate(pooled):
            if not p:
                results[:, j] = np.fromiter(map(fn, block[:, j].tolist()), object, len(block))
    return out.reshape(values.shape)
