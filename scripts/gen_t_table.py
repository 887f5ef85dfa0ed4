#!/usr/bin/env python3
"""Generate the committed Student-t quantile table that Smith's rule reads.

Writes ``stdtrit(df, p)`` at the paper's 90% confidence
(``p = 0.5 + CONFIDENCE / 2``, with ``repro.stats.ci.CONFIDENCE = 0.90``)
for ``df = 1..32,768`` as a float64 ``.npy`` next to
:mod:`repro.stats.ci`, which answers those quantiles from it
without importing SciPy.  The range covers every category of the
largest full-scale Table 1 trace (SDSC95, 22,885 jobs).  One vectorised
``scipy.special.stdtrit`` call computes every entry, and the script
refuses to write unless each one equals the scalar call bit for bit.
Run after a SciPy upgrade, and commit the result only if the pinned
tables still hold:  python scripts/gen_t_table.py
"""

from __future__ import annotations

import numpy as np
from scipy.special import stdtrit

from repro.stats.ci import _TABLE_PATH, _TABLED_P

#: Largest tabled degrees of freedom.
MAX_DF = 32_768


def main() -> None:
    dfs = np.arange(1, MAX_DF + 1)
    table = stdtrit(dfs, _TABLED_P)
    scalar = np.array([float(stdtrit(int(df), _TABLED_P)) for df in dfs])
    if not np.array_equal(table.view(np.uint64), scalar.view(np.uint64)):
        raise SystemExit("vectorised stdtrit differs from the scalar call; table not written")
    np.save(_TABLE_PATH, table, allow_pickle=False)
    print(f"wrote {_TABLE_PATH} ({table.size} quantiles at p = {_TABLED_P})")


if __name__ == "__main__":
    main()
