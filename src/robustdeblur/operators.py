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

The schedule runs in a :class:`Workspace`: one image, one half spectrum
and one k-frame stack with its half spectrum, allocated once per solve by
the solver (and per call by the public :func:`hessian_apply`), so the
PCG loop allocates no grid-sized array.  A workspace belongs to one solve
and is never stored on :class:`BlurOperator`, the preconditioner or the
objective: those stay immutable, so concurrent solves may share them,
each with its own workspace.
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
    "Workspace",
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


class Workspace:
    """Scratch buffers for one solve on an ``(h, w)`` grid with ``frames`` frames.

    ``image`` (h, w) and ``spectrum`` (h, w//2+1, complex) serve the
    image-sized kernels; ``stack`` (frames, h, w) and ``stack_spectrum``
    (frames, h, w//2+1, complex) the per-frame ones.  A kernel that takes
    a workspace keeps its temporaries there; the Hessian kernel and the
    preconditioner solve also return their result in ``image``, so the
    caller must copy it before the next kernel call.  Not thread-safe:
    create one per solve and never share it.
    """

    def __init__(self, shape: tuple[int, int], frames: int = 0):
        h, w = int(shape[0]), int(shape[1])
        self.image = np.empty((h, w))
        self.spectrum = np.empty((h, w // 2 + 1), dtype=np.complex128)
        self.stack = np.empty((frames, h, w))
        self.stack_spectrum = np.empty((frames, h, w // 2 + 1), dtype=np.complex128)


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
        # The half-spectrum symbol of A^T A, sum_j |H_j|^2, and the
        # conjugate squared-kernel OTFs: every preconditioner build reads them.
        self._gram_half = _frozen(np.sum(np.abs(_half(otfs)) ** 2, axis=0))
        self._sq_otf_half_adj = None
        if sq_otfs is not None:
            sq_otfs = np.asarray(sq_otfs, dtype=np.complex128)
            if sq_otfs.shape != otfs.shape:
                raise ValueError("sq_otfs shape must match otfs")
            _check_hermitian(sq_otfs, "sq_otfs")
            sq_otfs = _frozen(sq_otfs)
            self._sq_otf_half_adj = _frozen(np.conj(_half(sq_otfs)))
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

    def _forward(self, x_hat, out=None, scratch=None) -> np.ndarray:
        """``A x`` from the half spectrum ``x_hat = _rdft2(x)``; k ifft2.

        ``out`` receives the (k, h, w) result and ``scratch``, a
        (k, h, w//2+1) complex array, the per-frame spectra; either may be
        None for a fresh array.  The products are taken frame by frame
        because numpy copies a broadcast operand into a temporary stack.
        """
        if scratch is None:
            scratch = np.empty(self._otf_half.shape, dtype=np.complex128)
        for otf, spec in zip(self._otf_half, scratch):
            np.multiply(otf, x_hat, out=spec)
        return _irdft2(scratch, self.shape, out=out)

    def _adjoint_spectrum(self, y: np.ndarray, scratch=None) -> np.ndarray:
        """Half spectrum of ``A^T y`` for a checked stack ``y``; k fft2."""
        return _adjoint_sum(self._otf_half_adj, y, scratch)


def _adjoint_sum(otf_half_adj, y, scratch=None) -> np.ndarray:
    """``sum_j otf_half_adj[j] * _rdft2(y[j])``; k fft2.

    The frames are summed into frame 0 of ``scratch`` (a fresh array when
    None), in frame order, as ``np.sum(..., axis=0)`` would; the result
    is that frame.
    """
    spec = _rdft2(y, out=scratch)
    np.multiply(otf_half_adj, spec, out=spec)
    for frame in spec[1:]:
        spec[0] += frame
    return spec[0]


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

    This is the checked entry point and returns a fresh array.  Solvers
    that apply one Hessian many times validate its weights once with
    :func:`_check_weights` and call :func:`_hessian_kernel`, the same
    schedule without the checks, in a workspace of their own.
    """
    s = as_image(s, "s")
    weights = _check_weights(op, weights, lam)
    ws = Workspace(op.shape, op.n_frames)
    return _hessian_kernel(op, _penalty_symbol(lap_sq, lam), weights, ws, s)


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


def _penalty_symbol(lap_sq: np.ndarray, lam: float) -> np.ndarray:
    """``lam * L^T L`` on the half spectrum, for :func:`_hessian_kernel`.

    Stored complex (zero imaginary part) so that multiplying it into a
    spectrum needs no cast buffer; numpy casts a real operand the same
    way, so the products are bitwise unchanged.
    """
    return (lam * _half(lap_sq)).astype(np.complex128)


def _hessian_kernel(op, penalty, weights, ws, s):
    """:func:`hessian_apply` on weights already passed by :func:`_check_weights`.

    ``penalty`` is ``_penalty_symbol(lap_sq, lam)``.  Runs in the
    :class:`Workspace` ``ws`` and returns its ``image``, which the next
    call overwrites.
    """
    k = op.n_frames
    s_hat = _rdft2(s, out=ws.spectrum)
    u = op._forward(s_hat, out=ws.stack, scratch=ws.stack_spectrum)
    tally_mults(k)
    u *= weights
    tally_mults(k)
    acc = op._adjoint_spectrum(u, scratch=ws.stack_spectrum)
    tally_mults(k)
    tally_adds(k - 1)
    # The budget counts the spectral products; lam * lap_sq is not tallied.
    acc += np.multiply(penalty, s_hat, out=s_hat)
    tally_mults()
    tally_adds()
    return _irdft2(acc, op.shape, out=ws.image)
