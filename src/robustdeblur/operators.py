"""Periodic blur operators, the Laplacian regularizer, and Hessian products.

The forward model stacks one or more circular convolutions of the unknown
image: frame j of ``A x`` is ``idft2(H_j * dft2(x))`` where ``H_j`` is the
frame's OTF.  Stacked residual-space vectors are 3D arrays of shape
``(frames, height, width)``.  Every frame is transformed in one batched
half-spectrum call (see :mod:`.gridfft`), which tallies one transform per
frame image.

``hessian_apply`` evaluates ``(A^T D A + lam * L^T L) s`` with a fused
transform schedule costing exactly 2 fft2 + 2 ifft2 + 4 pixel-wise
multiplies + 1 addition per single-frame apply.  The schedule is part of
the module contract (tests pin the counts), not an optimization detail.
"""

from __future__ import annotations

import numpy as np

from .gridfft import (
    _check_hermitian,
    _half,
    _irdft2,
    _rdft2,
    as_image,
    psf_to_otf,
    tally_adds,
    tally_mults,
)

__all__ = [
    "BlurOperator",
    "laplacian_symbol",
    "hessian_apply",
    "as_stack",
]


def as_stack(values, shape: tuple[int, int], name: str = "stack") -> np.ndarray:
    """Validate a residual-space vector: (k, h, w) float64, finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1:] != tuple(shape):
        raise ValueError(
            f"{name} must have shape (k, {shape[0]}, {shape[1]}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class BlurOperator:
    """Stacked periodic blur operator defined by one OTF per frame.

    Immutable after construction; safe to share across threads.  The
    full-grid ``otfs`` and ``sq_otfs`` and the half-spectrum copies the
    kernels use are all read-only.  The squared-PSF OTFs (transforms of
    the pixel-wise squared kernels) are precomputed once here because the
    preconditioner needs them at every Newton step.

    Construction raises :class:`~.gridfft.InverseTransformError` unless
    every frame of ``otfs`` and ``sq_otfs`` is Hermitian-symmetric, the
    spectrum of a real kernel; the half-spectrum inverse transforms rely
    on it and no longer check their output.
    """

    def __init__(self, otfs, sq_otfs=None):
        otfs = np.asarray(otfs, dtype=np.complex128)
        if otfs.ndim == 2:
            otfs = otfs[None, :, :]
        if otfs.ndim != 3 or otfs.shape[0] < 1:
            raise ValueError(f"otfs must have shape (k, h, w), got {otfs.shape}")
        _check_hermitian(otfs, "otfs")
        self.otfs = _frozen(otfs)
        # Both half spectra are kept: every Hessian product needs each one.
        self._otf_half = _frozen(np.ascontiguousarray(_half(otfs)))
        self._otf_half_adj = _frozen(np.conj(self._otf_half))
        if sq_otfs is not None:
            sq_otfs = np.asarray(sq_otfs, dtype=np.complex128)
            if sq_otfs.shape != otfs.shape:
                raise ValueError("sq_otfs shape must match otfs")
            _check_hermitian(sq_otfs, "sq_otfs")
            sq_otfs = _frozen(sq_otfs)
        self.sq_otfs = sq_otfs

    @classmethod
    def from_psfs(cls, psfs, centers) -> "BlurOperator":
        """Build from full-grid PSFs and their center coordinates.

        Also transforms the pixel-wise squared PSFs: for a circulant
        operator every matrix entry is a kernel value, so the operator
        built from ``psf**2`` is exactly the entry-wise square of A.
        """
        psfs = [as_image(p, "psf") for p in psfs]
        if len(psfs) != len(centers):
            raise ValueError("one center per psf required")
        shape = psfs[0].shape
        for p in psfs:
            if p.shape != shape:
                raise ValueError("all frame PSFs must share the grid shape")
        otfs = np.stack([psf_to_otf(p, c) for p, c in zip(psfs, centers)])
        sq_otfs = np.stack(
            [psf_to_otf(p * p, c) for p, c in zip(psfs, centers)]
        )
        return cls(otfs, sq_otfs)

    @property
    def n_frames(self) -> int:
        return self.otfs.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.otfs.shape[1:]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward model: frame j of the result is ``idft2(H_j * dft2(x))``."""
        x = as_image(x)
        if x.shape != self.shape:
            raise ValueError(f"image shape {x.shape} != operator grid {self.shape}")
        return self._forward(_rdft2(x))

    def apply_adjoint(self, y) -> np.ndarray:
        """Adjoint: ``sum_j idft2(conj(H_j) * dft2(y_j))``."""
        y = as_stack(y, self.shape, "y")
        if y.shape[0] != self.n_frames:
            raise ValueError(
                f"stack has {y.shape[0]} frames, operator has {self.n_frames}"
            )
        return _irdft2(self._adjoint_spectrum(y), self.shape)

    def _forward(self, x_hat: np.ndarray) -> np.ndarray:
        """``A x`` from the half spectrum ``x_hat = _rdft2(x)``; k ifft2."""
        return _irdft2(self._otf_half * x_hat, self.shape)

    def _adjoint_spectrum(self, y: np.ndarray) -> np.ndarray:
        """Half spectrum of ``A^T y`` for a checked stack ``y``; k fft2."""
        return np.sum(self._otf_half_adj * _rdft2(y), axis=0)


def laplacian_symbol(shape: tuple[int, int]) -> np.ndarray:
    """Squared DFT eigenvalues of the periodic 5-point Laplacian stencil.

    The stencil puts 4 on the diagonal and -1 on the four periodic
    neighbors, so the eigenvalue at frequency (k, l) on an h-by-w grid is
    ``4 - 2cos(2 pi k / h) - 2cos(2 pi l / w)`` (nonnegative, zero at the
    constant mode).  Only ``L^T L`` enters the math, so the squared symbol
    is stored.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 2 or w < 2:
        raise ValueError(f"grid must be at least 2x2, got {shape}")
    rows = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(h) / h)
    cols = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(w) / w)
    symbol = rows[:, None] + cols[None, :]
    return symbol * symbol


def hessian_apply(
    op: BlurOperator,
    lap_sq: np.ndarray,
    weights: np.ndarray,
    lam: float,
    s: np.ndarray,
) -> np.ndarray:
    """Evaluate ``(A^T D A + lam * L^T L) s`` with the fused schedule.

    ``weights`` holds the nonnegative diagonal of D, one entry per
    residual-space pixel (shape ``(k, h, w)``).  Per frame the schedule
    spends one OTF multiply, one weight multiply, and one conjugate-OTF
    multiply; the regularization term adds one multiply on the shared input
    spectrum.  Single-frame total: 2 fft2, 2 ifft2, 4 multiplies, 1 add.

    This is the checked entry point.  Solvers that apply one Hessian many
    times validate its weights once with :func:`_check_weights` and call
    :func:`_hessian_kernel`, the same schedule without the checks.
    """
    s = as_image(s, "s")
    return _hessian_kernel(op, lap_sq, _check_weights(op, weights, lam), lam, s)


def _check_weights(op: BlurOperator, weights, lam: float) -> np.ndarray:
    """Validate Hessian weights and ``lam``; return the weights as a stack."""
    weights = as_stack(weights, op.shape, "weights")
    if weights.shape[0] != op.n_frames:
        raise ValueError("one weight frame per operator frame required")
    if np.any(weights < 0):
        raise ValueError("Hessian weights must be nonnegative")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return weights


def _hessian_kernel(op, lap_sq, weights, lam, s):
    """:func:`hessian_apply` on weights already passed by :func:`_check_weights`."""
    k = op.n_frames
    s_hat = _rdft2(s)
    u = op._forward(s_hat)
    tally_mults(k)
    u *= weights
    tally_mults(k)
    acc = op._adjoint_spectrum(u)
    tally_mults(k)
    tally_adds(k - 1)
    # The budget counts the spectral products; lam * lap_sq is not tallied.
    acc += lam * _half(lap_sq) * s_hat
    tally_mults()
    tally_adds()
    return _irdft2(acc, op.shape)
