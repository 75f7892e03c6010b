"""Column-scaling preconditioner for the weighted normal equations.

The inner Newton systems have the form ``(A^T D A + lam L^T L) s`` with a
diagonal D that changes every outer iteration.  Refactorizing is out of
the question, so instead approximate ``A^T D A ~ Dhat (A^T A) Dhat`` with
a diagonal Dhat chosen so the two sides have exactly equal diagonals:

    Dhat_ii = sqrt( diag(A^T D A)_i / diag(A^T A)_i ).

Both diagonals are cheap for periodic convolutions: diag(A^T D A) is one
adjoint apply of the operator built from the squared PSF, and diag(A^T A)
is the constant sum(psf^2).  The resulting

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

from .gridfft import _half, _irdft2, _rdft2, tally_mults
from .operators import BlurOperator, Workspace, _adjoint_sum, as_stack

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
    are read-only.
    """

    dhat: np.ndarray
    inv_dhat: np.ndarray
    inv_symbol: np.ndarray
    lambda_hat: float

    def solve(self, r: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        """Apply M^{-1} r: scale, deconvolve spectrally, scale again.

        Runs in the image and spectrum buffers of ``ws`` and returns its
        ``image``, which the next kernel call overwrites.  Without a
        workspace it runs in a throwaway one, so the result is a fresh
        array.
        """
        ws = Workspace(self.dhat.shape) if ws is None else ws
        u = np.multiply(self.inv_dhat, r, out=ws.image)
        tally_mults()
        spec = _rdft2(u, out=ws.spectrum)
        np.multiply(self.inv_symbol, spec, out=spec)
        v = _irdft2(spec, u.shape, out=u)
        tally_mults()
        out = np.multiply(self.inv_dhat, v, out=v)
        tally_mults()
        return out


def build_dhat(op: BlurOperator, weights) -> np.ndarray:
    """Diagonal scaling with diag(Dhat A^T A Dhat) = diag(A^T D A) exactly.

    ``weights`` is the Hessian diagonal D, one frame per operator frame.
    The numerator diag(A^T D A)_p = sum_i A_ip^2 D_i is the adjoint of the
    squared-kernel operator applied to D; the denominator diag(A^T A) is
    the constant sum_j sum(psf_j^2), read off the squared-kernel OTF at
    frequency zero.
    """
    if op.sq_otfs is None:
        raise ValueError("operator lacks squared-kernel OTFs; build it from PSFs")
    weights = as_stack(weights, op.shape, "weights")
    if weights.shape[0] != op.n_frames:
        raise ValueError("one weight frame per operator frame required")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not np.any(weights > 0):
        raise ValueError("all weights are zero (every residual saturated)")

    dhat = _irdft2(_adjoint_sum(op._sq_otf_half_adj, weights), op.shape)
    np.maximum(dhat, 0.0, out=dhat)  # clip rounding noise before sqrt
    dhat /= float(np.sum(op.sq_otfs[:, 0, 0].real))
    np.sqrt(dhat, out=dhat)
    return np.maximum(dhat, DHAT_FLOOR * dhat.max(), out=dhat)


def precond_build(
    op: BlurOperator, lap_sq: np.ndarray, weights, lam: float
) -> Preconditioner:
    """Assemble the preconditioner for the current Hessian weights."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    dhat = build_dhat(op, weights)
    lambda_hat = float(lam) / float(np.mean(dhat)) ** 2
    symbol = op._gram_half + lambda_hat * _half(lap_sq)
    lo, hi = float(symbol.min()), float(symbol.max())
    if lo <= SYMBOL_RCOND * hi:
        ratio = lo / hi if hi > 0 else 0.0
        raise ValueError(
            f"ill-conditioned preconditioner symbol: min/max ratio {ratio:.1e} "
            f"is at or below machine epsilon (blur kernel has near-zero "
            f"spectral gain and lambda_hat {lambda_hat:.1e} is too small)"
        )
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
