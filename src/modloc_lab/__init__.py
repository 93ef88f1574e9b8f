"""modloc-lab: desk-scale numerical checks of localization-induced
thermality in quantum field theory."""

import os

# BLAS and LAPACK run on one thread unless the caller sets
# OPENBLAS_NUM_THREADS.  OpenBLAS reads the variable once, when numpy (or
# scipy, which bundles its own copy) is first imported, so it is set here,
# before any submodule imports numpy.  At the default configs every matrix
# this lab factors is at most 1024 x 1024 (a reflection sector of the
# 2048-site chain), and at those sizes the worker hand-offs cost more than
# they save: on two cores a 128 x 128 GEMM took 14-21 ms threaded against
# 0.1 ms on one thread, and a 1024 x 1024 eigh 127-167 ms against
# 111-115 ms.  Threads also let two LAPACK calls oversubscribe the cores
# under `verify-all --parallel`.  Only near the 4096-site chain cap do
# threads win (a 2048 x 2048 eigh: 1.35-1.57 s against 1.81-1.93 s).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
