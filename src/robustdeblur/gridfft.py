"""Pixel grids, 2D DFTs, and the half-spectrum layout.

Images are plain 2D float64 arrays (row-major, photon counts); spectra are
2D complex128 arrays of the same shape.  The transform convention is fixed
throughout the package: unnormalized forward DFT and 1/N inverse (numpy's
default), so ``idft2(dft2(x)) == x`` and a PSF's spectrum at frequency
(0, 0) equals its pixel sum.  Non-power-of-two and odd sizes are supported.

The operator kernels run on real images, so they use the private
half-spectrum pair :func:`_rdft2` / :func:`_irdft2` (bitwise numpy's
``rfft2`` and ``irfft2(s=shape)`` over the last two axes of an ``(h, w)``
image or ``(k, h, w)`` stack).  A half spectrum keeps columns
``0 .. w//2`` of the full one; this module alone knows that layout
(:func:`_half` cuts a full-grid symbol to it, :func:`_psf_spectra` builds
the half spectra of a PSF stack, :func:`_spectral_energy` carries the
Parseval weights of the dropped columns).  The public :func:`dft2` /
:func:`idft2` keep the full complex layout and serve as the reference.

The pair calls the pocketfft gufuncs of the private module
``numpy.fft._pocketfft_umath`` directly, the kernels that ``numpy.fft``'s
own ``_raw_fft`` calls (numpy >= 2.0).  A GCV search makes thousands of
these calls on small grids, where the public wrappers' argument handling
is a large share of each call.  Called directly, a forward / inverse
transform takes 18.5 / 20.3 us instead of 28.7 / 26.0 us through
``numpy.fft`` on 64x64, and 48.4 / 52.4 us instead of 58.4 / 58.1 us on
a 3x64x64 stack; on 256x256 it gains 3-6% (numpy 2.4.6, 2-vCPU Xeon VM,
10th percentile of 60 interleaved blocks).  This module is the only one
that touches numpy's FFT internals, and it has no fallback to the public
functions: should numpy move the module, importing the package fails.

:func:`_rdft2` runs the real pass along axis -1 into ``out`` and then the
complex pass along axis -2 in place; :func:`_irdft2` the complex pass
along axis -2 in place, scaled by ``1/h``, then the real pass along axis
-1 into ``out``, scaled by ``1/w``.  Both take an optional ``out`` array
(a fresh one when None), so the solver's inner loop can run in buffers it
allocates once per solve.  :func:`_irdft2` therefore always **consumes**
its input spectrum; every caller passes a spectrum it no longer needs.

The module keeps a per-thread tally of transforms and pixel-wise
multiplies / additions issued by the operator kernels: each thread counts
only what it issues, so concurrent solves each get their own counts.
Every transform counts once per frame image, whichever pair issued it:
one ``fft2`` or ``ifft2`` for a 2D image, ``k`` for a ``(k, h, w)``
stack.  The multiplies and additions are tallied by the kernels
themselves, one per frame image for a batched product.  The tally exists
so tests can pin exact per-apply operation counts; see
:func:`count_transforms`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading
from pathlib import Path

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

__all__ = [
    "COUNTS",
    "OpCounts",
    "count_transforms",
    "dft2",
    "idft2",
    "write_pgm",
    "read_raw",
    "write_raw",
    "InverseTransformError",
]

# Relative imaginary residue beyond which idft2 refuses to discard.
IMAG_TOL = 1e-10

# gufunc ``axes`` of a pocketfft pass along axis -2: (input, factor, output).
_COLUMNS = [(-2,), (), (-2,)]


class InverseTransformError(ValueError):
    """Inverse transform produced a non-negligible imaginary part.

    The operator symbols used in this package are all Hermitian-symmetric,
    so a complex inverse signals an inconsistent symbol, not rounding.
    """


@dataclasses.dataclass
class OpCounts:
    """Tally of 2D transforms and pixel-wise array operations."""

    fft2: int = 0
    ifft2: int = 0
    mults: int = 0
    adds: int = 0

    def copy(self) -> "OpCounts":
        return OpCounts(self.fft2, self.ifft2, self.mults, self.adds)


class _ThreadCounts(threading.local, OpCounts):
    """An :class:`OpCounts` with one set of fields per thread."""


#: The calling thread's tally. Incremented by both transform pairs and by the
#: operator kernels (pixel-wise multiplies and additions only; scalar folding
#: is free).
COUNTS = _ThreadCounts()


@contextlib.contextmanager
def count_transforms():
    """Yield an :class:`OpCounts` holding the ops the calling thread issued
    inside the block.

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


def _checked(convert, holds, reason: str):
    """Rule: ``convert`` a value or its text, then require ``holds`` of the
    result, or raise ``ValueError`` giving ``reason`` and the result."""

    def parse(value):
        value = convert(value)
        if not holds(value):
            raise ValueError(f"{reason}, got {value}")
        return value

    return parse


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# The one rule of each scalar quantity, for a library argument (through
# _arg or a _ruled field) and a text value (through _field) alike: each
# takes a value or its text.  An integer is an int or np.integer that is
# not a bool, a boolean any value whose str _BOOLEANS names; every float
# rule but beta's, whose inf means weighted least squares, is finite.
_int_value = _checked(lambda v: int(v) if isinstance(v, (str, np.integer)) else v,
                      lambda v: type(v) is int, "must be an integer")
_finite_float = _checked(float, math.isfinite, "must be finite")
_nonneg_float = _checked(_finite_float, lambda v: v >= 0, "must be nonnegative")
_positive_float = _checked(_finite_float, lambda v: v > 0, "must be positive")
_positive_or_inf = _checked(float, lambda v: v > 0, "must be positive")
_fraction = _checked(_finite_float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_nonneg_int = _checked(_int_value, lambda v: v >= 0, "must be nonnegative")
_positive_int = _checked(_int_value, lambda v: v >= 1, "must be at least 1")
_boolean = _checked(lambda v: _BOOLEANS.get(str(v).strip().lower(), v),
                    lambda v: type(v) is bool, "expected a boolean (0/1/true/false)")


def _grid_shape(value):
    """Rule of a grid shape: two integers (or their text), each at least 2,
    as the Laplacian needs; returns them as a tuple of ints."""
    try:
        h, w = () if isinstance(value, str) else value
        shape = _int_value(h), _int_value(w)
    except (TypeError, ValueError):
        shape = (0, 0)
    if min(shape) < 2:
        raise ValueError(f"must be two integers, each at least 2, got {value!r}")
    return shape


def _arg(name: str, rule, value):
    """``rule(value)``; a value it rejects raises ``<name> <reason>``."""
    try:
        return rule(value)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} {err}") from None


def _ruled(rule, default=dataclasses.MISSING):
    """A dataclass field whose ``metadata["rule"]`` is ``rule``."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def _keep_checked(obj) -> None:
    """Set each :func:`_ruled` field of the (frozen) dataclass ``obj`` to
    the value its rule returns, through :func:`_arg`."""
    for f in dataclasses.fields(obj):
        if "rule" in f.metadata:
            value = _arg(f.name, f.metadata["rule"], getattr(obj, f.name))
            object.__setattr__(obj, f.name, value)


def as_image(values, name: str = "image", shape=None) -> np.ndarray:
    """Validate and return a 2D float64 image (finite entries only), on the
    ``shape`` grid when one is given."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a 2D array, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} shape {arr.shape} != grid {tuple(shape)}")
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


def idft2(spec: np.ndarray) -> np.ndarray:
    """Inverse 2D DFT (1/N normalization), returning a real image.

    The imaginary residue is discarded when it is below :data:`IMAG_TOL`
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
    if imag_norm > IMAG_TOL * max(norm, np.finfo(np.float64).tiny):
        raise InverseTransformError(
            f"imaginary residue {imag_norm:.3e} exceeds {IMAG_TOL:.1e} of norm "
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
    w = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (w // 2 + 1,), dtype=np.complex128)
    rfft = _pocketfft.rfft_n_even if w % 2 == 0 else _pocketfft.rfft_n_odd
    rfft(x, 1.0, out=out)
    return _pocketfft.fft(out, 1.0, axes=_COLUMNS, out=out)


def _irdft2(
    spec: np.ndarray, shape: tuple[int, int], out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`_rdft2` onto a ``shape`` grid; always real.

    ``shape`` is required because an odd width and the even width below
    it keep the same number of half-spectrum columns.  The dropped columns
    are taken to be the Hermitian mirror of the kept ones, which is what
    the spectrum of a real image or kernel has.
    Tallies one ``ifft2`` per frame image.

    ``spec`` (writable complex128) is consumed: the pass along axis -2
    overwrites it.  ``out``, when given, is a float64 array of the
    result's shape that receives the image.
    """
    COUNTS.ifft2 += math.prod(spec.shape[:-2])
    h, w = int(shape[0]), int(shape[1])
    _pocketfft.ifft(spec, 1.0 / h, axes=_COLUMNS, out=spec)
    if out is None:
        out = np.empty(spec.shape[:-1] + (w,))
    return _pocketfft.irfft(spec, 1.0 / w, out=out)


def _half(symbol: np.ndarray) -> np.ndarray:
    """View of a full-grid symbol cut to the half-spectrum columns."""
    return symbol[..., : symbol.shape[-1] // 2 + 1]


def _spectral_energy(
    half_symbol: np.ndarray, spec: np.ndarray, shape: tuple[int, int]
) -> float:
    """``(1/N) sum symbol * |X|^2`` over the full grid, from ``spec = _rdft2(x)``.

    ``half_symbol`` is :func:`_half` of a real full-grid symbol with the
    Hermitian symmetry ``symbol[-k, -l] == symbol[k, l]``.  Each
    half-spectrum column other than column 0 and, for even widths, column
    ``w/2`` stands for itself and its mirror, so it counts twice (Parseval).
    """
    h, w = int(shape[0]), int(shape[1])
    # symbol * |X|^2 in one array and one temporary
    power = np.square(spec.real)
    power += np.square(spec.imag)
    power *= half_symbol
    cols = np.sum(power, axis=-2)
    total = 2.0 * np.sum(cols) - cols[0]
    if w % 2 == 0:
        total -= cols[-1]
    return float(total) / (h * w)


def _psf_spectra(psfs: np.ndarray, centers) -> np.ndarray:
    """Half spectra of the blurs whose kernels are the frames of ``psfs``.

    ``psfs`` is a checked ``(k, h, w)`` stack and ``centers[j]`` a pixel
    of frame j.  Each frame is circularly shifted so that its center lands
    on index (0, 0), then transformed by a full ``fft2`` and cut to the
    half layout: bitwise the columns that :func:`dft2` gives.  ``rfft2``
    differs from them in the last bit, enough to move a GCV search.
    Tallies one ``fft2`` per frame.
    """
    shifted = np.stack(
        [np.roll(p, (-ci, -cj), axis=(0, 1)) for p, (ci, cj) in zip(psfs, centers)]
    )
    COUNTS.fft2 += len(shifted)
    return np.ascontiguousarray(_half(np.fft.fft2(shifted)))


# ---------------------------------------------------------------------------
# File formats: raw float64 for lossless round trips, a 16-bit PGM writer
# for viewing, and the text files: schema-tagged CSV tables and key=value
# lines, whose values are read through the scalar rules above.
# ---------------------------------------------------------------------------


def _write_table(path, schema: str, header: str, rows) -> None:
    """CSV table under a ``# schema=<schema>`` line and the ``header`` line;
    each row's cells are written with ``str``."""
    lines = ["# schema=%s" % schema, header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _read_key_values(path) -> list[tuple[str, str]]:
    """The ``(key, value)`` pairs of a ``key=value`` text file, both
    stripped, in file order.  Blank lines and ``#`` comments are skipped;
    any other line without ``=`` raises ``ValueError`` naming the file and
    the line's number."""
    pairs = []
    for lineno, raw_line in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                "%s: line %d is not a key=value pair: %r" % (path, lineno, line)
            )
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _field(values: dict, key: str, source, convert=str, default=None):
    """``convert(values[key])``, or ``default`` for an absent key when one is
    given.  A missing key or a value ``convert`` rejects raises
    ``ValueError`` naming ``source`` (the file read) and the key."""
    if key not in values:
        if default is not None:
            return default
        raise ValueError(f"{source}: missing key {key!r}")
    try:
        return convert(values[key])
    except ValueError as err:
        raise ValueError(f"{source}: invalid value for key {key!r}: {err}") from None


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


def read_raw(path, shape=None) -> np.ndarray:
    """Read an image written by :func:`write_raw`, on the ``shape`` grid
    when one is given.  A fault in the header raises ``ValueError`` naming
    ``<path>.hdr`` (and the key); another shape than ``shape``, or a
    payload that is not ``height * width`` float64 values, one naming
    ``path``."""
    path = Path(path)
    hdr = Path(str(path) + ".hdr")
    fields = {}
    for item in hdr.read_text().split():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"{hdr}: {item!r} is not a key=value pair")
        fields[key] = value
    h = _field(fields, "height", hdr, _positive_int)
    w = _field(fields, "width", hdr, _positive_int)
    if shape is not None and (h, w) != tuple(shape):
        raise ValueError(f"{path}: shape {(h, w)} != grid {tuple(shape)}")
    payload = path.read_bytes()
    if len(payload) != 8 * h * w:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, header says {h}x{w} "
            f"float64 values ({8 * h * w} bytes)"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(h, w).copy()


def write_pgm(path, img: np.ndarray) -> None:
    """Write a viewing copy as 16-bit binary PGM (P5), rescaled to [0, 65535].

    Lossy by design: values are clipped at zero and scaled so the image
    maximum maps to 65535.  Use :func:`write_raw` for exact storage.
    """
    img = as_image(img)
    scaled = np.clip(img, 0.0, None)
    peak = scaled.max()
    if peak > 0:
        scaled = scaled * (65535 / peak)
    h, w = img.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    # PGM 16-bit is big-endian
    Path(path).write_bytes(header + np.round(scaled).astype(">u2").tobytes())
