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


def one(kernel, value: float, *args) -> float:
    """``kernel`` at one float, run on a 1-element array: the float a column holding ``value`` gives."""
    return float(kernel(np.array([value]), *args)[0])


def per_value(fn, block: np.ndarray) -> np.ndarray:
    """``fn(v)`` for every element ``v`` of a block of float64 rows, one column per field, as objects.

    ``block`` is 2-D and C-contiguous; the result has its shape.  A column
    where at least a quarter of the values equal their neighbour or their
    mirror image is pooled with the other such columns, and ``fn`` runs
    once per distinct bit pattern of the pool (so ``0.0`` and ``-0.0``, and
    NaNs with different payloads, stay apart); any other column runs ``fn``
    once per element.  Either way every element is exactly ``fn(v)``.  The
    CSV writer hands over one block of rows at a time, so repeats are found
    within a block.
    """
    out = np.empty(block.shape, object)
    bits = block.view(np.int64)
    repeated = bits == bits[::-1]
    repeated[1:] |= bits[1:] == bits[:-1]
    pooled = (4 * repeated.sum(axis=0) >= len(block)).tolist()
    columns = [j for j, p in enumerate(pooled) if p]
    if columns and len(block):
        # np.unique(pool, return_inverse=True) would cost 17-20 us a call
        # on a 289-row pass, more than the calls it saves.
        pool = bits[:, columns]
        ordered = np.sort(pool, axis=None)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        once = np.fromiter(map(fn, distinct.view(np.float64).tolist()), object, len(distinct))
        out[:, columns] = once[np.searchsorted(distinct, pool)]
    for j, p in enumerate(pooled):
        if not p:
            out[:, j] = np.fromiter(map(fn, block[:, j].tolist()), object, len(block))
    return out
