"""Set-up cost a CLI call pays: ``import dirtda`` plus a first ``fit_var``.

Run in a fresh interpreter as ``python3 probe_setup.py <src dir>``; prints
the wall seconds from just before the import to just after the fit. The
first fit includes BLAS start-up.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dirtda  # noqa: E402
import numpy as np  # noqa: E402

series = dirtda.MultivariateSeries(np.random.default_rng(0).standard_normal((200, 3)), 1.0)
dirtda.fit_var(series, 2)
print(repr(time.perf_counter() - start))
