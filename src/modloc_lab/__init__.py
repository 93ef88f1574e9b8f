"""modloc-lab: desk-scale numerical checks of localization-induced
thermality in quantum field theory."""

import os

# BLAS and LAPACK run on one thread unless the caller sets
# OPENBLAS_NUM_THREADS.  OpenBLAS reads the variable once, when numpy (or
# scipy, which bundles its own copy) is first imported, so it is set here,
# before any submodule imports numpy.  At the default configs every matrix
# this lab factors is at most 1024 x 1024 (a reflection sector of the
# 2048-site chain).  On two cores a 128 x 128 GEMM took 14-21 ms threaded
# against 0.1 ms on one thread.  A 1024 x 1024 eigvalsh is faster threaded
# (75-80 ms against 126-129 ms), but the default entropy-scan gains only
# 0.50 -> 0.38 s for 1.5 times the CPU time, and under
# `verify-all --parallel` threads let two LAPACK calls oversubscribe the
# cores.  Near the 4096-site chain cap threads win clearly (a 2048 x 2048
# eigvalsh: 0.54-0.57 s against 0.85-0.91 s).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
