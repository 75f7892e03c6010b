"""Pixel grids, 2D DFTs, and PSF/OTF conversion.

Images are plain 2D float64 arrays (row-major, photon counts); spectra are
2D complex128 arrays of the same shape.  The transform convention is fixed
throughout the package: unnormalized forward DFT and 1/N inverse (numpy's
default), so ``idft2(dft2(x)) == x`` and a PSF's OTF value at frequency
(0, 0) equals its pixel sum.  Non-power-of-two and odd sizes are supported.

The operator kernels run on real images, so they use the private
half-spectrum pair :func:`_rdft2` / :func:`_irdft2` (numpy's ``rfft2`` and
``irfft2`` over the last two axes of an ``(h, w)`` image or ``(k, h, w)``
stack).  A half spectrum keeps columns ``0 .. w//2`` of the full one; this
module alone knows that layout (:func:`_half` cuts a full-grid symbol to it,
:func:`_spectral_energy` carries the Parseval weights of the dropped
columns).  The public :func:`dft2` / :func:`idft2` keep the full complex
layout and serve as the reference.

Both private transforms take an optional ``out`` array (numpy >= 2.0), so
the solver's inner loop can run in buffers it allocates once per solve.
:func:`_irdft2` always **consumes** its input spectrum: it runs the
complex pass along axis -2 in place, then the real pass along axis -1
into ``out`` (a fresh array when ``out`` is None).  The result is bitwise
that of ``irfft2(spec, s=shape)``, odd widths included; every caller
passes a spectrum it no longer needs.

The module keeps a global tally of transforms and pixel-wise multiplies /
additions issued by the operator kernels.  Every transform counts once per
frame image, whichever pair issued it: one ``fft2`` or ``ifft2`` for a 2D
image, ``k`` for a ``(k, h, w)`` stack.  The multiplies and additions are
tallied by the kernels themselves, one per frame image for a batched
product.  The tally exists so tests can pin exact per-apply operation
counts; see :func:`count_transforms`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OpCounts",
    "count_transforms",
    "dft2",
    "idft2",
    "psf_to_otf",
    "embed_psf",
    "read_pgm",
    "write_pgm",
    "read_raw",
    "write_raw",
    "InverseTransformError",
]

# Relative imaginary residue beyond which idft2 refuses to discard.
IMAG_TOL = 1e-10


class InverseTransformError(ValueError):
    """Inverse transform produced a non-negligible imaginary part.

    The operator symbols used in this package are all Hermitian-symmetric,
    so a complex inverse signals an inconsistent symbol, not rounding.
    """


@dataclass
class OpCounts:
    """Tally of 2D transforms and pixel-wise array operations."""

    fft2: int = 0
    ifft2: int = 0
    mults: int = 0
    adds: int = 0

    def copy(self) -> "OpCounts":
        return OpCounts(self.fft2, self.ifft2, self.mults, self.adds)


#: Global tally. Incremented by both transform pairs and by the operator kernels
#: (pixel-wise multiplies and additions only; scalar folding is free).
COUNTS = OpCounts()


@contextlib.contextmanager
def count_transforms():
    """Yield an :class:`OpCounts` holding the ops issued inside the block.

    >>> with count_transforms() as c:
    ...     spec = dft2(img)
    >>> c.fft2
    1
    """
    start = COUNTS.copy()
    tally = OpCounts()
    try:
        yield tally
    finally:
        tally.fft2 = COUNTS.fft2 - start.fft2
        tally.ifft2 = COUNTS.ifft2 - start.ifft2
        tally.mults = COUNTS.mults - start.mults
        tally.adds = COUNTS.adds - start.adds


def tally_mults(n: int = 1) -> None:
    COUNTS.mults += n


def tally_adds(n: int = 1) -> None:
    COUNTS.adds += n


def as_image(values, name: str = "image") -> np.ndarray:
    """Validate and return a 2D float64 image (finite entries only)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def dft2(img: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT of a real image.

    Linearity and Parseval's identity hold:
    ``sum(|dft2(x)|**2) == N * sum(x**2)`` with ``N = height * width``.
    """
    img = as_image(img)
    COUNTS.fft2 += 1
    return np.fft.fft2(img)


def idft2(spec: np.ndarray, imag_tol: float = IMAG_TOL) -> np.ndarray:
    """Inverse 2D DFT (1/N normalization), returning a real image.

    The imaginary residue is discarded when it is below ``imag_tol``
    relative to the result norm; a larger residue raises
    :class:`InverseTransformError`.
    """
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim != 2:
        raise ValueError(f"spectrum must be a 2D array, got shape {spec.shape}")
    COUNTS.ifft2 += 1
    out = np.fft.ifft2(spec)
    norm = np.linalg.norm(out)
    imag_norm = np.linalg.norm(out.imag)
    if imag_norm > imag_tol * max(norm, np.finfo(np.float64).tiny):
        raise InverseTransformError(
            f"imaginary residue {imag_norm:.3e} exceeds {imag_tol:.1e} of norm "
            f"{norm:.3e}; operator symbol is not Hermitian-symmetric"
        )
    return np.ascontiguousarray(out.real)


def _rdft2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half-spectrum forward DFT over the last two axes of real ``x``.

    Same convention as :func:`dft2`, keeping only columns ``0 .. w//2``;
    tallies one ``fft2`` per frame image.  ``out``, when given, is a
    complex128 array of the result's shape that receives the spectrum.
    """
    COUNTS.fft2 += math.prod(x.shape[:-2])
    return np.fft.rfft2(x, out=out)


def _irdft2(
    spec: np.ndarray, shape: tuple[int, int], out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`_rdft2` onto a ``shape`` grid; always real.

    ``shape`` is required because an odd width and the even width below
    it keep the same number of half-spectrum columns.  The dropped columns
    are taken to be the Hermitian mirror of the kept ones, so the caller's
    symbols must be Hermitian-symmetric (see :func:`_check_hermitian`).
    Tallies one ``ifft2`` per frame image.

    ``spec`` (writable complex128) is consumed: the pass along axis -2
    overwrites it.  ``out``, when given, is a float64 array of the
    result's shape that receives the image.
    """
    COUNTS.ifft2 += math.prod(spec.shape[:-2])
    np.fft.ifft(spec, axis=-2, out=spec)
    return np.fft.irfft(spec, n=int(shape[1]), axis=-1, out=out)


def _half(symbol: np.ndarray) -> np.ndarray:
    """View of a full-grid symbol cut to the half-spectrum columns."""
    return symbol[..., : symbol.shape[-1] // 2 + 1]


def _spectral_energy(
    symbol: np.ndarray, spec: np.ndarray, shape: tuple[int, int]
) -> float:
    """``(1/N) sum symbol * |X|^2`` over the full grid, from ``spec = _rdft2(x)``.

    ``symbol`` is a real full-grid symbol with the Hermitian symmetry
    ``symbol[-k, -l] == symbol[k, l]``.  Each half-spectrum column other
    than column 0 and, for even widths, column ``w/2`` stands for itself
    and its mirror, so it counts twice (Parseval).
    """
    h, w = int(shape[0]), int(shape[1])
    cols = np.sum(_half(symbol) * (spec.real**2 + spec.imag**2), axis=-2)
    total = 2.0 * np.sum(cols) - cols[0]
    if w % 2 == 0:
        total -= cols[-1]
    return float(total) / (h * w)


def _check_hermitian(stack: np.ndarray, name: str) -> None:
    """Raise unless each frame ``S`` of ``stack`` has ``S[-k, -l] == conj(S[k, l])``.

    The half-spectrum inverse silently assumes this symmetry, so it is
    checked once per operator instead of on every inverse transform.  The
    tolerance is :data:`IMAG_TOL` relative to each frame's norm, which
    accepts the rounding-level asymmetry of :func:`psf_to_otf` output.
    """
    mirror = np.roll(stack[..., ::-1, ::-1], 1, axis=(-2, -1))
    gap = np.linalg.norm(stack - np.conj(mirror), axis=(-2, -1))
    norm = np.linalg.norm(stack, axis=(-2, -1))
    tiny = np.finfo(np.float64).tiny
    bad = np.flatnonzero(gap > IMAG_TOL * np.maximum(norm, tiny))
    if bad.size:
        j = int(bad[0])
        raise InverseTransformError(
            f"{name} frame {j} is not Hermitian-symmetric: asymmetry "
            f"{gap.flat[j]:.3e} exceeds {IMAG_TOL:.1e} of norm {norm.flat[j]:.3e}"
        )


def psf_to_otf(psf: np.ndarray, center: tuple[int, int]) -> np.ndarray:
    """Transform a full-grid PSF into the eigenvalue array of its operator.

    The PSF is circularly shifted so that ``center`` lands on index (0, 0),
    then forward transformed.  ``psf`` must already match the grid size;
    embed smaller kernels with :func:`embed_psf` first.  The center must be
    given explicitly because peak detection is ambiguous for flat-topped
    kernels.
    """
    psf = as_image(psf, "psf")
    ci, cj = int(center[0]), int(center[1])
    h, w = psf.shape
    if not (0 <= ci < h and 0 <= cj < w):
        raise ValueError(f"center {center} outside grid {psf.shape}")
    return dft2(np.roll(psf, (-ci, -cj), axis=(0, 1)))


def embed_psf(
    psf: np.ndarray, shape: tuple[int, int], center: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-pad a small PSF into the top-left corner of a larger grid.

    Returns the padded PSF and the center coordinates on the new grid
    (unchanged: padding does not move pixel (0, 0)).
    """
    psf = as_image(psf, "psf")
    h, w = psf.shape
    H, W = int(shape[0]), int(shape[1])
    if h > H or w > W:
        raise ValueError(f"psf {psf.shape} larger than target grid {shape}")
    out = np.zeros((H, W))
    out[:h, :w] = psf
    return out, (int(center[0]), int(center[1]))


# ---------------------------------------------------------------------------
# File formats: 16-bit PGM for viewing, raw float64 for lossless round trips.
# ---------------------------------------------------------------------------


def write_raw(path, img: np.ndarray) -> None:
    """Write an image losslessly: little-endian float64, row-major.

    A sidecar header ``<path>.hdr`` with ``height=<int> width=<int>``
    records the shape.
    """
    img = as_image(img)
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(img, dtype="<f8").tobytes())
    Path(str(path) + ".hdr").write_text(
        f"height={img.shape[0]} width={img.shape[1]}\n"
    )


def read_raw(path) -> np.ndarray:
    """Read an image written by :func:`write_raw`."""
    path = Path(path)
    header = Path(str(path) + ".hdr").read_text().split()
    fields = dict(item.split("=", 1) for item in header)
    h, w = int(fields["height"]), int(fields["width"])
    data = np.frombuffer(path.read_bytes(), dtype="<f8")
    if data.size != h * w:
        raise ValueError(
            f"{path}: payload has {data.size} values, header says {h}x{w}"
        )
    return data.reshape(h, w).copy()


def write_pgm(path, img: np.ndarray, maxval: int = 65535) -> None:
    """Write a viewing copy as binary PGM (P5), rescaled to [0, maxval].

    Lossy by design: values are clipped at zero and scaled so the image
    maximum maps to ``maxval``.  Use :func:`write_raw` for exact storage.
    """
    if not 0 < maxval <= 65535:
        raise ValueError("maxval must be in 1..65535")
    img = as_image(img)
    scaled = np.clip(img, 0.0, None)
    peak = scaled.max()
    if peak > 0:
        scaled = scaled * (maxval / peak)
    pixels = np.round(scaled).astype(np.uint32)
    h, w = img.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval < 256:
        payload = pixels.astype(np.uint8).tobytes()
    else:
        payload = pixels.astype(">u2").tobytes()  # PGM 16-bit is big-endian
    Path(path).write_bytes(header + payload)


def _pgm_tokens(blob: bytes):
    # Token stream over the header, skipping '#' comments.
    i = 0
    while True:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        yield blob[start:i], i
        i += 1


def read_pgm(path) -> np.ndarray:
    """Read an 8- or 16-bit PGM image (P2 ascii or P5 binary) as float64."""
    blob = Path(path).read_bytes()
    tokens = _pgm_tokens(blob)
    magic, _ = next(tokens)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    (w_tok, _), (h_tok, _), (max_tok, end) = (
        next(tokens),
        next(tokens),
        next(tokens),
    )
    w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    if not 0 < maxval <= 65535:
        raise ValueError(f"{path}: bad maxval {maxval}")
    if magic == b"P2":
        values = np.array(blob[end:].split(), dtype=np.float64)
    else:
        raster = blob[end + 1 :]  # single whitespace byte after maxval
        dtype = np.uint8 if maxval < 256 else ">u2"
        values = np.frombuffer(raster, dtype=dtype, count=h * w).astype(
            np.float64
        )
    if values.size != h * w:
        raise ValueError(f"{path}: expected {h * w} samples, got {values.size}")
    return values.reshape(h, w)
