"""Test-support utilities shipped with the library.

* :mod:`repro.testing.faults` -- the deterministic fault-injection harness
  behind the resilience test suite and
  ``benchmarks/test_bench_resilience.py``.  It lives in the installed
  package (not under ``tests/``) because the injection points are compiled
  into the production service/pool code and the spawned worker processes
  must be able to import it.
* :mod:`repro.testing.reference` -- the serial reference implementations
  (per-frame frontend, per-client hill climbing) that the batched
  production paths are tested and benchmarked against.  Import it
  explicitly; it is not loaded with this package.
"""

from repro.testing import faults

__all__ = ["faults"]
