"""Imports attnpool before any test module imports numpy.

The package pins BLAS to one thread, and BLAS reads that setting once,
when numpy loads; importing the package here, before pytest collects
the test modules, makes every subset of the suite run at that one
thread, whichever module imports numpy first.
"""

import attnpool  # noqa: F401
