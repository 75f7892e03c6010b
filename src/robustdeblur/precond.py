"""Column-scaling preconditioner for the weighted normal equations.

The inner Newton systems have the form ``(A^T D A + lam L^T L) s`` with a
diagonal D that changes every outer iteration.  Refactorizing is out of
the question, so instead approximate ``A^T D A ~ Dhat (A^T A) Dhat`` with
a diagonal Dhat chosen so the two sides have exactly equal diagonals:

    Dhat_ii = sqrt( diag(A^T D A)_i / diag(A^T A)_i ).

Both diagonals are cheap for periodic convolutions: diag(A^T D A) is one
adjoint apply of the operator built from the squared PSF, and diag(A^T A)
is the constant sum(psf^2), a scalar the operator stores when it is
built.  The resulting

    M = Dhat (A^T A + lam_hat L^T L) Dhat,   lam_hat = lam / mean(Dhat)^2

is solved in closed form through the DFT at a fixed cost of one forward
transform, one inverse transform, and three pixel-wise multiplies.  The
solve runs in the image and half-spectrum buffers of a per-solve
:class:`.operators.Workspace`; the :class:`Preconditioner` itself holds no
scratch, so one may be shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfft import COUNTS, _arg, _irdft2, _nonneg_float, _rdft2, as_image
from .operators import (
    BlurOperator, Workspace, _adjoint_sum, _check_weights, _laplacian_half
)

__all__ = ["Preconditioner", "build_dhat", "precond_build"]

# Relative floor keeping Dhat positive when saturation zeroes whole regions.
DHAT_FLOOR = 1e-6

# A symbol whose min/max ratio is at or below float64 epsilon cannot be
# inverted meaningfully: 1/symbol would amplify rounding noise.
SYMBOL_RCOND = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Preconditioner:
    """Frozen factorization of M = Dhat (A^T A + lam_hat L^T L) Dhat.

    ``inv_symbol`` holds the inverse symbol on the half spectrum that
    :func:`.gridfft._rdft2` produces, stored complex with a zero imaginary
    part so the solve multiplies it in without a cast buffer.  All arrays
    are read-only.  :meth:`solve` reads ``inv_dhat`` and ``inv_symbol``
    alone; the copy a Hessian solve runs PCG with has ``dhat`` None, so
    that PCG does not hold it.
    """

    dhat: np.ndarray
    inv_dhat: np.ndarray
    inv_symbol: np.ndarray
    lambda_hat: float

    def solve(self, r: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        """Apply M^{-1} r: scale, deconvolve spectrally, scale again.

        Runs in the image and spectrum buffers of ``ws`` and returns its
        ``image``, which the next kernel call overwrites.  Without a
        workspace ``r`` is checked and the solve runs in a throwaway one,
        so the result is a fresh array.
        """
        if ws is None:
            r = as_image(r, "r", self.inv_dhat.shape)
            ws = Workspace(self.inv_dhat.shape)
        u = np.multiply(self.inv_dhat, r, out=ws.image)
        spec = _rdft2(u, out=ws.spectrum)
        np.multiply(self.inv_symbol, spec, out=spec)
        v = _irdft2(spec, u.shape, out=u)
        COUNTS.mults += 3
        return np.multiply(self.inv_dhat, v, out=v)


def build_dhat(op: BlurOperator, weights) -> np.ndarray:
    """Diagonal scaling with diag(Dhat A^T A Dhat) = diag(A^T D A) exactly.

    ``weights`` is the Hessian diagonal D, one frame per operator frame.
    The numerator diag(A^T D A)_p = sum_i A_ip^2 D_i is the adjoint of the
    squared-kernel operator applied to D; the denominator diag(A^T A) is
    the constant sum_j sum(psf_j^2), which the operator stores when it is
    built.
    """
    weights = _positive_weights(op, weights)
    return _scaling(op, weights, Workspace(op.shape, op.n_frames))


def _positive_weights(op: BlurOperator, weights) -> np.ndarray:
    """:func:`.operators._check_weights`, and at least one weight positive."""
    weights = _check_weights(op, weights)
    if not np.any(weights > 0):
        raise ValueError("all weights are zero (every residual saturated)")
    return weights


def _scaling(op: BlurOperator, weights: np.ndarray, ws: Workspace) -> np.ndarray:
    """:func:`build_dhat` of weights already passed by :func:`_positive_weights`;
    the per-frame spectra go to ``ws.stack_spectrum``."""
    dhat = _irdft2(_adjoint_sum(op._sq_otf_half_adj, weights, ws), op.shape)
    np.maximum(dhat, 0.0, out=dhat)  # clip rounding noise before sqrt
    dhat /= op._gram_diag
    np.sqrt(dhat, out=dhat)
    return np.maximum(dhat, DHAT_FLOOR * dhat.max(), out=dhat)


class _IllConditionedSymbol(ValueError):
    """The symbol of M fails the :data:`SYMBOL_RCOND` test; a Hessian solve
    catches this one error and runs unpreconditioned."""


def _check_symbol(symbol: np.ndarray, lambda_hat: float) -> None:
    lo, hi = float(symbol.min()), float(symbol.max())
    if lo <= SYMBOL_RCOND * hi:
        ratio = lo / hi if hi > 0 else 0.0
        raise _IllConditionedSymbol(
            f"ill-conditioned preconditioner symbol: min/max ratio {ratio:.1e} "
            f"is at or below machine epsilon (blur kernel has near-zero "
            f"spectral gain and lambda_hat {lambda_hat:.1e} is too small)"
        )


def precond_build(op: BlurOperator, weights, lam: float, *,
                  dhat: np.ndarray | None = None,
                  ws: Workspace | None = None) -> Preconditioner:
    """Assemble the preconditioner for the current Hessian weights.

    ``dhat`` is :func:`build_dhat` of ``weights`` when the caller already
    has it (positive and finite on the grid, else ``ValueError``); only
    the lambda-dependent part is then built.  Otherwise the scaling's
    per-frame temporaries run in ``ws`` (a throwaway one when None).  A
    symbol at or below :data:`SYMBOL_RCOND` raises ``ValueError``.
    """
    lam = _arg("lam", _nonneg_float, lam)
    if dhat is None:
        weights = _positive_weights(op, weights)
        if lam == 0:  # the symbol does not depend on dhat: check it first
            _check_symbol(op._gram_half, 0.0)
        dhat = _scaling(op, weights, ws or Workspace(op.shape, op.n_frames))
    else:
        dhat = as_image(dhat, "dhat", op.shape)
        if not np.all(dhat > 0):
            raise ValueError(f"dhat must be positive, got minimum {dhat.min()}")
    lambda_hat = lam / float(np.mean(dhat)) ** 2
    symbol = op._gram_half + lambda_hat * _laplacian_half(op.shape)
    _check_symbol(symbol, lambda_hat)
    inv_dhat = 1.0 / dhat
    inv_symbol = (1.0 / symbol).astype(np.complex128)
    for arr in (dhat, inv_dhat, inv_symbol):
        arr.setflags(write=False)
    return Preconditioner(
        dhat=dhat,
        inv_dhat=inv_dhat,
        inv_symbol=inv_symbol,
        lambda_hat=lambda_hat,
    )
