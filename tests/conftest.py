# Importing the package sets its single-thread BLAS default.  OpenBLAS reads
# that setting only when numpy is first imported, so the import must come
# before any test module loads numpy; pytest runs this file before it
# collects the tests, so the suite runs under the same policy as the CLI.
import modloc_lab  # noqa: F401
