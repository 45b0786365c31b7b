"""Fast-vs-reference kernel switch for the vectorized hot paths.

Two inner loops dominate a day-loop run at city scale: NN-UCB arm scoring
(one per-sample parameter gradient per candidate capacity per broker per
day, :mod:`repro.bandits.neural_ucb`) and Candidate Broker Selection
(one quickselect per request row per batch, :mod:`repro.core.selection`).
Both now ship in two implementations:

* the **fast** kernels — batched NumPy passes (:meth:`repro.nn.MLP.
  param_gradients`, the ``argpartition`` top-k mask) — the default;
* the **reference** kernels — the original per-sample / per-row code,
  retained verbatim as the differential oracle the :mod:`repro.check`
  suites cross-validate against.

Both kernels consume no randomness, so a seeded run is bit-identical in
either mode (CBS selection sets are *exactly* equal; UCB scores agree to
floating-point round-off, which the differential suites bound).  The
covariance update always adds a gradient that is bit for bit the
per-sample one: ``param_gradient`` in the per-broker loop, and a
row-shaped stacked pass (:meth:`repro.nn.MLP.stacked_pass`) in the
day-batched ``estimate_batch`` that the fast kernels enable — so the
bandit state evolves identically.  ``benchmarks/test_hotpath.py``
enforces both the equivalence and the speedup.

The switch is process-wide.  :func:`set_fast_kernels` flips it in-process;
the ``REPRO_REFERENCE_KERNELS=1`` environment variable flips it at import
time — use the environment variable when running with ``--jobs N`` so
worker processes inherit the mode.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Environment flag forcing the reference kernels process-wide.
ENV_FLAG = "REPRO_REFERENCE_KERNELS"

_TRUTHY = ("1", "true", "yes", "on")

_fast = os.environ.get(ENV_FLAG, "").strip().lower() not in _TRUTHY


def fast_kernels_enabled() -> bool:
    """Whether the vectorized fast paths are active (the default)."""
    return _fast


def set_fast_kernels(enabled: bool) -> None:
    """Select the fast (``True``) or reference (``False``) kernels."""
    global _fast
    _fast = bool(enabled)


@contextmanager
def use_fast_kernels(enabled: bool):
    """Temporarily select a kernel mode (restores the previous one)."""
    global _fast
    previous = _fast
    _fast = bool(enabled)
    try:
        yield
    finally:
        _fast = previous


def reference_kernels():
    """Context manager running its body on the reference kernels."""
    return use_fast_kernels(False)
