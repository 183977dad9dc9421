"""Write ``src/beamdiv/leggauss_256_512.npy``, the far field's stored Gauss-Legendre rules.

Run from the root of a source checkout::

    python3 tools/write_leggauss_table.py

The file holds ``np.polynomial.legendre.leggauss(n)`` for each node count in
``beam_optics._STORED_RULES``, bit for bit: row 0 the nodes, row 1 the
weights, each rule in the columns its slice names.  This script is the file's
only writer; ``tests/test_beam_optics.py`` fails when the file no longer
equals ``leggauss`` on the host that runs it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from beamdiv import beam_optics  # noqa: E402


def main() -> None:
    table = np.empty((2, max(cols.stop for cols in beam_optics._STORED_RULES.values())))
    for n_nodes, cols in beam_optics._STORED_RULES.items():
        table[:, cols] = np.polynomial.legendre.leggauss(n_nodes)
    np.save(beam_optics._STORED_RULES_FILE, table)
    print(f"wrote {beam_optics._STORED_RULES_FILE}: rules {sorted(beam_optics._STORED_RULES)}")


if __name__ == "__main__":
    main()
