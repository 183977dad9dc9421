"""Write ``src/beamdiv/leggauss_256_512.npy``, the far field's stored Gauss-Legendre rules.

Run from the root of a source checkout::

    python3 tools/write_leggauss_table.py

The file holds ``np.polynomial.legendre.leggauss(n)`` for the far field's
rule, ``n = beam_optics._N_NODES``, and for its doubling check, ``2 * n``,
bit for bit: row 0 the nodes, row 1 the weights, the ``n``-node rule first.
This script is the file's only writer; ``tests/test_beam_optics.py`` fails
when the file no longer equals ``leggauss`` on the host that runs it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from beamdiv import beam_optics  # noqa: E402


def main() -> None:
    n = beam_optics._N_NODES
    table = np.hstack([np.polynomial.legendre.leggauss(n), np.polynomial.legendre.leggauss(2 * n)])
    np.save(beam_optics._RULES_FILE, table)
    print(f"wrote {beam_optics._RULES_FILE}: rules {[n, 2 * n]}")


if __name__ == "__main__":
    main()
