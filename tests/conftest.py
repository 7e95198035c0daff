"""Pin the BLAS and OpenMP pools to one thread before numpy loads.

The command line tool pins these variables before its first numpy import
(`cli._pin_thread_pools`); pinning them here as well makes the test suite
exercise the same single-threaded reductions.  `THREAD_VARS` must equal
`cli._THREAD_VARS`, which a test checks.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

for _var in THREAD_VARS:
    os.environ[_var] = "1"
