"""Test-session set-up shared by ``tests/`` and ``perfbench/tests/``.

The BLAS and OpenMP pools are pinned to one thread before anything imports
numpy: the solver's matrices are small, so a second thread only spins and
makes timings swing. This runs first because pytest loads the root
conftest before collecting any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
