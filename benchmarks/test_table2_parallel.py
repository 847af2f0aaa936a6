"""T2 — the §6 table corpus under a 4-worker pool.

``table --jobs 4`` must report exactly what the sequential table
reports (``tests/diffcheck.py``'s normalized-report equality: only
wall-clock keys may differ).  Wall time is not asserted: a speedup
needs spare CPUs, and ``perfbench`` is where time is measured.
"""

import diffcheck
from repro.programs import TABLE_PROGRAMS


def test_parallel_table_matches_sequential():
    assert diffcheck.diff_table(list(TABLE_PROGRAMS), jobs=4) == []
