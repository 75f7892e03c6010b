"""Robust image deblurring under mixed Poisson-Gaussian noise with outliers.

The package reconstructs a nonnegative image from one or more blurred,
noisy observations.  Residuals are rescaled by the signal-dependent
standard deviation of the Poisson-Gaussian model and passed through a
saturating (Talwar) loss, so corrupted measurements stop influencing
the fit instead of dominating it.  The smoothed objective is minimized
by a projected Newton method whose inner systems are solved with
preconditioned conjugate gradients entirely in the Fourier domain; the
regularization weight can be chosen automatically by generalized
cross-validation with a randomized trace estimate.
"""

from . import gcv, gridfft, objective, operators, precond, solver, testbed

__version__ = "0.1.0"

# Each public name is listed once, in its module's __all__; the root
# re-exports those of every library module (the CLI stays apart).
__all__ = []
for _module in (gridfft, operators, objective, precond, solver, gcv, testbed):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
