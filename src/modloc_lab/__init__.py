"""modloc-lab: desk-scale numerical checks of localization-induced
thermality in quantum field theory."""

import os

# BLAS and LAPACK run on one thread unless the caller sets
# OPENBLAS_NUM_THREADS.  OpenBLAS reads the variable once, when numpy (or
# scipy, which bundles its own copy) is first imported, so it is set here,
# before any submodule imports numpy.  At the default configs every matrix
# this lab factors is at most 512 x 512 (a quarter block of the 2048-site
# chain).  On two cores a 128 x 128 GEMM took 14-21 ms threaded against
# 0.1 ms on one thread, and a 512 x 512 eigvalsh 12-13 ms either way, while
# under `verify-all --parallel` threads let two LAPACK calls oversubscribe
# the cores.  Near the 4096-site chain cap threads win (a 1024 x 1024
# eigvalsh: 78-80 ms against 101-104 ms).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
