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

Every private kernel runs in a required :class:`Workspace` (one image,
one half spectrum and one frame batch with its half spectrum) and
trusts its arguments.  A solve allocates one, or uses its walk's over
lambda, so the PCG loop allocates no grid-sized array; each public entry
point checks its inputs and allocates one per call.  A workspace belongs
to one solve or walk and is never stored on :class:`BlurOperator`, the
preconditioner or the objective: those stay immutable, so concurrent
solves may share them, each with its own workspace.

The k-frame kernels run over the frames one batch at a time.  A batch
holds as many frames as fit in :data:`_BATCH_BYTES` of half spectrum, at
least one, so a workspace's scratch is bounded by the grid, not by k.
Each transform and product is taken per frame whatever the batching,
and the adjoint adds the frames in frame order, so every result is
bitwise the same for any batch size; when all frames fit in one batch
the kernels issue the same numpy calls as one k-frame stack would.
"""

from __future__ import annotations

import functools

import numpy as np

from .gridfft import (
    COUNTS,
    _arg,
    _half,
    _irdft2,
    _nonneg_float,
    _psf_spectra,
    _rdft2,
    as_image,
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


# Half-spectrum bytes a workspace's frame batch may hold.  Run frame by
# frame, the 3-frame kernels take 1.2x the time of one batched call at
# 64x64, where a call's fixed cost is a large share, 1.06-1.09x at 96x96,
# 1.0-1.08x from 128x128 to 192x192 and 0.95-0.98x at 256x256 and 384x384
# (numpy 2.4.6, 2-vCPU Xeon VM).  So up to 7 frames of a 64x64 grid
# (33 KiB each) and 3 of a 96x96 one (74 KiB) share a batch, and from
# 128x128 (130 KiB) on each frame is a batch of its own, which keeps a
# solve's scratch from growing with k.
_BATCH_BYTES = 256 * 1024


class Workspace:
    """Scratch buffers for one solve on an ``(h, w)`` grid with ``frames`` frames.

    ``image`` (h, w) and ``spectrum`` (h, w//2+1, complex) serve the
    image-sized kernels; ``stack`` (n, h, w) and ``stack_spectrum``
    (n, h, w//2+1, complex) the per-frame ones, one batch of n frames at
    a time (see :func:`_frame_batches`): as many frames as
    :data:`_BATCH_BYTES` of half spectrum holds, at least one and at most
    ``frames``.  When the frames span more than one batch,
    ``stack_spectrum`` has one more frame: its frame 0 holds the adjoint
    sum while the later batches run in the frames after it.  Without
    frames (the image-only kernels) both stacks are empty.

    A kernel that takes a workspace keeps its temporaries there; the
    Hessian kernel and the preconditioner solve also return their result
    in ``image``, so the caller must copy it before the next kernel call.
    Not thread-safe: create one per solve or walk and never share it
    across threads.
    """

    def __init__(self, shape: tuple[int, int], frames: int = 0):
        h, w = int(shape[0]), int(shape[1])
        batch = min(frames, max(1, _BATCH_BYTES // (h * (w // 2 + 1) * 16)))
        spectra = batch + (batch < frames)
        self.image = np.empty((h, w))
        self.spectrum = np.empty((h, w // 2 + 1), dtype=np.complex128)
        self.stack = np.empty((batch, h, w))
        self.stack_spectrum = np.empty((spectra, h, w // 2 + 1), dtype=np.complex128)


def _frame_batches(ws: Workspace, *stacks):
    """Per frame batch of ``ws``: ``(stack, spectra, *views)``, the
    workspace's ``stack`` and ``stack_spectrum`` cut to the batch's n
    frames, then each k-frame array of ``stacks`` cut to the batch.

    The first batch's spectra start at ``stack_spectrum[0]``, where the
    adjoint sum lands (:func:`_add_adjoint`); the later batches' start
    after it.  When all k frames fit in one batch this is one tuple of the
    arrays themselves, so the kernels issue the calls of one k-frame
    stack.
    """
    batch, k = len(ws.stack), len(stacks[0])
    if batch == k:
        return ((ws.stack, ws.stack_spectrum) + stacks,)
    batches = []
    for j in range(0, k, batch):
        n, skip = min(batch, k - j), int(j > 0)
        batches.append((ws.stack[:n], ws.stack_spectrum[skip:skip + n],
                        *(a[j:j + n] for a in stacks)))
    return batches


class BlurOperator:
    """Stacked periodic blur operator defined by one PSF per frame.

    ``psfs`` are full-grid kernels of one shape (zero-pad smaller ones
    with ``np.pad`` first) and ``centers[j]`` is the (row, column) of the
    kernel's origin in ``psfs[j]``; it is given explicitly because peak
    detection is ambiguous for flat-topped kernels.  The grid must be at
    least 2x2, as the Laplacian penalty needs.

    The operator keeps only what the kernels read: the half spectra of A
    and of its adjoint, the symbol of A^T A, and the conjugate half
    spectra of the operator built from the pixel-wise squared PSFs.  For
    a circulant operator every matrix entry is a kernel value, so that
    operator is exactly the entry-wise square of A; the preconditioner
    reads it at every Newton step, together with the constant
    diag(A^T A) = sum_j sum(psf_j**2).  Immutable after construction and
    safe to share across threads: every array is read-only.
    """

    def __init__(self, psfs, centers):
        psfs = [as_image(p, "psf") for p in psfs]
        if not psfs:
            raise ValueError("at least one psf required")
        if len(psfs) != len(centers):
            raise ValueError(
                f"one center per psf required, got {len(centers)} for {len(psfs)}"
            )
        shape = psfs[0].shape
        _check_grid(shape)
        for p in psfs:
            if p.shape != shape:
                raise ValueError("all frame PSFs must share the grid shape")
        for c in centers:
            if np.shape(c) != (2,):
                raise ValueError(f"center {c!r} is not a (row, column) pair")
        centers = [(int(ci), int(cj)) for ci, cj in centers]
        for ci, cj in centers:
            if not (0 <= ci < shape[0] and 0 <= cj < shape[1]):
                raise ValueError(f"center {(ci, cj)} outside grid {shape}")
        psfs = np.stack(psfs)
        self.shape = shape
        otf_half = _psf_spectra(psfs, centers)
        # Both half spectra are kept: every Hessian product needs each one.
        self._otf_half = _frozen(otf_half)
        self._otf_half_adj = _frozen(np.conj(otf_half))
        # The symbol of A^T A, sum_j |H_j|^2: every preconditioner build reads it.
        self._gram_half = _frozen(np.sum(np.abs(otf_half) ** 2, axis=0))
        self._sq_otf_half_adj = _frozen(np.conj(_psf_spectra(psfs * psfs, centers)))
        # diag(A^T A): the squared-kernel spectra at frequency zero.
        self._gram_diag = float(np.sum(self._sq_otf_half_adj[:, 0, 0].real))

    @property
    def n_frames(self) -> int:
        return self._otf_half.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward model: frame j of the result is ``idft2(H_j * dft2(x))``."""
        x = as_image(x, shape=self.shape)
        ws = Workspace(self.shape, self.n_frames)
        out = np.empty((self.n_frames,) + self.shape)
        return self._forward(_rdft2(x, out=ws.spectrum), ws, out)

    def apply_adjoint(self, y) -> np.ndarray:
        """Adjoint: ``sum_j idft2(conj(H_j) * dft2(y_j))``."""
        y = as_stack(y, self.shape, "y")
        if y.shape[0] != self.n_frames:
            raise ValueError(
                f"stack has {y.shape[0]} frames, operator has {self.n_frames}"
            )
        ws = Workspace(self.shape, self.n_frames)
        spec = _adjoint_sum(self._otf_half_adj, y, ws)
        return _irdft2(spec, self.shape, out=ws.image)

    def _forward(self, x_hat, ws: Workspace, out: np.ndarray) -> np.ndarray:
        """``A x`` into the k-frame ``out`` from the half spectrum
        ``x_hat = _rdft2(x)``; k ifft2, batch by batch in ``ws``."""
        for _, spectra, otf, frames in _frame_batches(ws, self._otf_half, out):
            _forward_frames(otf, x_hat, spectra, frames, self.shape)
        return out


def _forward_frames(otf_half, x_hat, spectra, out, shape) -> None:
    """Frame j of ``out`` is ``idft2(otf_half[j] * x_hat)`` on the ``shape``
    grid, the per-frame spectra built in ``spectra``.  The products are
    taken frame by frame because numpy copies a broadcast operand into a
    temporary stack."""
    for otf, spec in zip(otf_half, spectra):
        np.multiply(otf, x_hat, out=spec)
    _irdft2(spectra, shape, out=out)


def _adjoint_sum(otf_half_adj, y, ws: Workspace) -> np.ndarray:
    """``sum_j otf_half_adj[j] * _rdft2(y[j])`` in ``ws.stack_spectrum[0]``;
    k fft2, batch by batch."""
    total, first = ws.stack_spectrum[0], True
    for _, spectra, otf, frames in _frame_batches(ws, otf_half_adj, y):
        _add_adjoint(otf, frames, spectra, total, first)
        first = False
    return total


def _add_adjoint(otf_half_adj, y, spectra, total, first: bool) -> None:
    """Add ``otf_half_adj[j] * _rdft2(y[j])`` of one batch to ``total``,
    in frame order, as ``np.sum(..., axis=0)`` would.  The first batch's
    spectra start at ``total``, so its frame 0 is the sum's first term."""
    spec = _rdft2(y, out=spectra)
    np.multiply(otf_half_adj, spec, out=spec)
    for frame in spec[1:] if first else spec:
        total += frame


def _check_grid(shape) -> tuple[int, int]:
    """``(h, w)`` of ``shape``; the Laplacian needs at least 2x2."""
    h, w = int(shape[0]), int(shape[1])
    if h < 2 or w < 2:
        raise ValueError(f"grid must be at least 2x2, got {shape}")
    return h, w


def laplacian_symbol(shape: tuple[int, int]) -> np.ndarray:
    """Squared DFT eigenvalues of the periodic 5-point Laplacian stencil.

    The stencil puts 4 on the diagonal and -1 on the four periodic
    neighbors, so the eigenvalue at frequency (k, l) on an h-by-w grid is
    ``4 - 2cos(2 pi k / h) - 2cos(2 pi l / w)`` (nonnegative, zero at the
    constant mode).  Only ``L^T L`` enters the math, so the squared symbol
    is stored.
    """
    h, w = _check_grid(shape)
    rows = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(h) / h)
    cols = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(w) / w)
    symbol = rows[:, None] + cols[None, :]
    return symbol * symbol


@functools.cache
def _laplacian_half(shape: tuple[int, int]) -> np.ndarray:
    """Read-only half spectrum of :func:`laplacian_symbol`, one per grid."""
    return _frozen(_half(laplacian_symbol(shape)).copy())


def hessian_apply(
    op: BlurOperator, weights: np.ndarray, lam: float, s: np.ndarray
) -> np.ndarray:
    """Evaluate ``(A^T D A + lam * L^T L) s`` with the fused schedule.

    ``weights`` holds the nonnegative diagonal of D, one entry per
    residual-space pixel (shape ``(k, h, w)``).  Per frame the schedule
    spends one OTF multiply, one weight multiply, and one conjugate-OTF
    multiply; the regularization term adds one multiply on the shared input
    spectrum.  Single-frame total: 2 fft2, 2 ifft2, 4 multiplies, 1 add.

    This is the checked entry point and returns a fresh array.  The
    solver calls :func:`_hessian_kernel`, the same schedule unchecked, on
    weights checked once where it made them.
    """
    s = as_image(s, "s", op.shape)
    weights = _check_weights(op, weights)
    penalty = _penalty_symbol(op.shape, _arg("lam", _nonneg_float, lam))
    return _hessian_kernel(op, penalty, weights, Workspace(op.shape, op.n_frames), s)


def _check_weights(op: BlurOperator, weights) -> np.ndarray:
    """Validate Hessian weights; return them as a stack."""
    weights = as_stack(weights, op.shape, "weights")
    if weights.shape[0] != op.n_frames:
        raise ValueError("one weight frame per operator frame required")
    if np.any(weights < 0):
        raise ValueError("Hessian weights must be nonnegative")
    return weights


def _penalty_symbol(shape: tuple[int, int], lam: float) -> np.ndarray:
    """``lam * L^T L`` on the half spectrum, for :func:`_hessian_kernel`.

    Stored complex (zero imaginary part) so that multiplying it into a
    spectrum needs no cast buffer; numpy casts a real operand the same
    way, so the products are bitwise unchanged.
    """
    return (lam * _laplacian_half(shape)).astype(np.complex128)


def _hessian_kernel(op, penalty, weights, ws, s):
    """:func:`hessian_apply` on weights already passed by :func:`_check_weights`.

    ``penalty`` is ``_penalty_symbol(op.shape, lam)``.  Runs in the
    :class:`Workspace` ``ws`` and returns its ``image``, which the next
    call overwrites.  It is :func:`_hessian_data_half` followed by
    :func:`_hessian_finish`.
    """
    s_hat, acc = _hessian_data_half(op, weights, ws, s)
    return _hessian_finish(op, penalty, s_hat, acc, ws)


def _hessian_data_half(op, weights, ws, s):
    """The lambda-free half of :func:`_hessian_kernel`: ``(s_hat, acc)``,
    the half spectra of ``s`` and of ``A^T D A s``; 2k+1 transforms.

    Both live in ``ws`` (``spectrum`` and frame 0 of ``stack_spectrum``)
    and are overwritten by the next kernel call.  Each batch of frames is
    blurred, weighted and added to the sum in turn, in ``ws.stack``.
    """
    s_hat = _rdft2(s, out=ws.spectrum)
    acc, first = ws.stack_spectrum[0], True
    batches = _frame_batches(ws, op._otf_half, op._otf_half_adj, weights)
    for u, spectra, otf, otf_adj, w in batches:
        _forward_frames(otf, s_hat, spectra, u, op.shape)
        u *= w
        _add_adjoint(otf_adj, u, spectra, acc, first)
        first = False
    COUNTS.mults += 3 * op.n_frames
    COUNTS.adds += op.n_frames - 1
    return s_hat, acc


def _hessian_finish(op, penalty, s_hat, acc, ws):
    """Add ``penalty * s_hat`` to ``acc`` and return the inverse transform in
    ``ws.image``; 1 transform.  Overwrites ``s_hat`` and ``acc``."""
    # The budget counts the spectral products; lam * L^T L is not tallied.
    acc += np.multiply(penalty, s_hat, out=s_hat)
    COUNTS.mults += 1
    COUNTS.adds += 1
    return _irdft2(acc, op.shape, out=ws.image)
