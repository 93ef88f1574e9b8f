# Importing the package sets its single-thread BLAS default.  OpenBLAS reads
# that setting only when numpy is first imported, so the import must come
# before any test module loads numpy; pytest runs this file before it
# collects the tests, so the suite runs under the same policy as the CLI.
import modloc_lab  # noqa: F401

import tracemalloc  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture
def traced_peak():
    """peak(fn): the most memory tracemalloc sees held during fn(), in MiB,
    after one untraced call that fills the quadrature rule caches."""
    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak
