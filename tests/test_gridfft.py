import numpy as np
import pytest

from robustdeblur import gridfft
from robustdeblur.gridfft import (
    InverseTransformError,
    count_transforms,
    dft2,
    idft2,
    read_raw,
    write_pgm,
    write_raw,
)
from robustdeblur.operators import BlurOperator, _laplacian_half, laplacian_symbol

from oracles import dense_blur_matrix, naive_dft2


def test_out_transforms_are_bitwise_numpy():
    # The solver's inner loop runs the private pair into buffers it reuses;
    # that must not move a bit, odd widths and frame stacks included.
    rng = np.random.default_rng(12)
    for shape in ((5, 7), (7, 6), (2, 9), (7, 5), (3, 5, 7), (64, 64), (3, 64, 64)):
        x = rng.standard_normal(shape)
        x_before = x.copy()
        grid = shape[-2:]
        expected = np.fft.rfft2(x)
        want = np.fft.irfft2(expected, s=grid)
        fresh = gridfft._rdft2(x)
        assert np.array_equal(fresh.view(np.float64), expected.view(np.float64))
        spec = np.empty(expected.shape, dtype=np.complex128)
        assert gridfft._rdft2(x, out=spec) is spec
        assert np.array_equal(spec.view(np.float64), expected.view(np.float64))
        assert np.array_equal(x, x_before)
        image = np.empty(shape)
        assert gridfft._irdft2(spec, grid, out=image) is image
        assert np.array_equal(image, want)
        assert np.array_equal(gridfft._irdft2(expected.copy(), grid), want)


def test_dft2_matches_naive_summation():
    rng = np.random.default_rng(11)
    img = rng.standard_normal((8, 8))
    assert np.max(np.abs(dft2(img) - naive_dft2(img))) < 1e-10


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (16, 16), (17, 17), (31, 31), (8, 16)])
def test_round_trip(shape):
    rng = np.random.default_rng(sum(shape))
    img = rng.standard_normal(shape)
    back = idft2(dft2(img))
    assert np.max(np.abs(back - img)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 4), (16, 16), (17, 31)])
def test_parseval(shape):
    # Unnormalized forward: spectral energy is N times pixel energy.
    rng = np.random.default_rng(7)
    img = rng.standard_normal(shape)
    n = shape[0] * shape[1]
    lhs = np.sum(np.abs(dft2(img)) ** 2)
    rhs = n * np.sum(img**2)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)
    # The Laplacian the kernels read is the symbol's half spectrum, shared
    # read-only; its energy counts each dropped column through its mirror.
    half = _laplacian_half(shape)
    assert not half.flags.writeable
    assert np.array_equal(half, laplacian_symbol(shape)[:, : shape[1] // 2 + 1])
    energy = gridfft._spectral_energy(half, gridfft._rdft2(img), shape)
    full = np.sum(laplacian_symbol(shape) * np.abs(dft2(img)) ** 2) / n
    assert energy == pytest.approx(full, rel=1e-12)


def test_linearity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 12))
    y = rng.standard_normal((12, 12))
    combo = dft2(2.5 * x - 1.25 * y)
    assert np.allclose(combo, 2.5 * dft2(x) - 1.25 * dft2(y), atol=1e-12)


def test_constant_and_delta_spectra():
    const = np.full((6, 10), 3.0)
    spec = dft2(const)
    assert spec[0, 0] == pytest.approx(3.0 * 60)
    spec[0, 0] = 0.0
    assert np.max(np.abs(spec)) < 1e-10

    delta = np.zeros((6, 10))
    delta[0, 0] = 1.0
    assert np.allclose(dft2(delta), np.ones((6, 10)))


def test_idft2_rejects_asymmetric_spectrum():
    spec = np.zeros((8, 8), dtype=np.complex128)
    spec[1, 2] = 1.0 + 1.0j  # no conjugate partner at (-1, -2)
    with pytest.raises(InverseTransformError):
        idft2(spec)
    with pytest.raises(ValueError, match="must be a 2D array, got shape"):
        idft2(np.zeros((2, 8, 8), dtype=np.complex128))


def test_idft2_tolerates_rounding_noise():
    rng = np.random.default_rng(5)
    img = rng.standard_normal((16, 16))
    spec = dft2(img)
    spec += 1e-14 * (1 + 1j)  # below the relative guard
    assert np.allclose(idft2(spec), img, atol=1e-10)


def test_as_image_validation():
    with pytest.raises(ValueError):
        gridfft.as_image(np.zeros(5))
    with pytest.raises(ValueError):
        gridfft.as_image(np.array([[1.0, np.nan]]))


# -- PSF spectra ---------------------------------------------------------


def psf_spectrum(psf, center):
    """Half spectrum of one PSF through the helper the operator uses."""
    return gridfft._psf_spectra(psf[None], [center])[0]


def test_delta_psf_gives_flat_otf():
    psf = np.zeros((8, 8))
    psf[3, 5] = 1.0
    otf = psf_spectrum(psf, (3, 5))
    assert otf.shape == (8, 5)
    assert np.max(np.abs(otf - 1.0)) < 1e-12


def test_symmetric_psf_gives_real_otf():
    # Even symmetry about the center makes the rolled kernel even about
    # the origin, so the spectrum is real.
    x = np.arange(-4, 4)
    g = np.exp(-0.3 * x**2)
    psf = np.outer(g, g)
    otf = psf_spectrum(psf, (4, 4))
    assert np.max(np.abs(otf.imag)) < 1e-12


def test_otf_matches_dense_circulant_matrix():
    # The spectrum holds the eigenvalues of the circulant matrix: the DFT
    # of its first column, and multiplying by it applies the matrix.
    rng = np.random.default_rng(23)
    x8 = np.arange(-4, 4)
    g = np.exp(-0.5 * (x8 / 1.5) ** 2)
    psf = np.outer(g, g)
    psf /= psf.sum()
    center = (4, 4)
    otf = psf_spectrum(psf, center)
    A = dense_blur_matrix(psf, center)
    eigenvalues = naive_dft2(A[:, 0].reshape(8, 8))
    assert np.max(np.abs(otf - eigenvalues[:, :5])) < 1e-10
    x = rng.standard_normal((8, 8))
    via_fft = np.fft.irfft2(otf * np.fft.rfft2(x), s=(8, 8))
    via_dense = (A @ x.ravel()).reshape(8, 8)
    assert np.max(np.abs(via_fft - via_dense)) < 1e-10


def test_unit_sum_psf_has_unit_dc_gain():
    rng = np.random.default_rng(2)
    psf = rng.random((7, 9))
    psf /= psf.sum()
    otf = psf_spectrum(psf, (3, 4))
    assert abs(otf[0, 0] - 1.0) < 1e-12


def test_psf_spectra_match_dft2_bitwise():
    # The operator's spectra are the half-layout columns of the reference
    # transform, bit for bit (bytes, so that -0.0 and 0.0 differ), with one
    # tallied fft2 per frame.
    rng = np.random.default_rng(3)
    for frames, shape in ((3, (5, 7)), (3, (9, 11)), (3, (7, 6)), (3, (2, 9)),
                          (3, (16, 16)), (1, (6, 5)), (1, (16, 16))):
        psfs = rng.random((frames,) + shape)
        centers = [(1, 0), (shape[0] - 1, shape[1] // 2), (0, shape[1] - 1)]
        centers = centers[:frames]
        with count_transforms() as c:
            got = gridfft._psf_spectra(psfs, centers)
        assert c.fft2 == frames
        assert got.shape == (frames, shape[0], shape[1] // 2 + 1)
        for p, (ci, cj), spec in zip(psfs, centers, got):
            full = dft2(np.roll(p, (-ci, -cj), axis=(0, 1)))
            want = np.ascontiguousarray(full[:, : shape[1] // 2 + 1])
            assert spec.tobytes() == want.tobytes(), (frames, shape)


def test_center_outside_grid_rejected():
    with pytest.raises(ValueError, match="outside grid"):
        BlurOperator([np.ones((4, 4)) / 16], [(4, 0)])
    with pytest.raises(ValueError, match="outside grid"):
        BlurOperator([np.ones((4, 4)) / 16], [(0, -1)])


# -- File formats -------------------------------------------------------


def test_raw_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    img = rng.standard_normal((13, 9)) * 1e6
    path = tmp_path / "scene.raw"
    write_raw(path, img)
    assert (tmp_path / "scene.raw.hdr").read_text() == "height=13 width=9\n"
    back = read_raw(path)
    assert back.shape == (13, 9)
    assert np.array_equal(back, img)


def test_raw_read_checks_payload_size(tmp_path):
    path = tmp_path / "bad.raw"
    write_raw(path, np.ones((4, 4)))
    (tmp_path / "bad.raw.hdr").write_text("height=4 width=5\n")
    with pytest.raises(ValueError):
        read_raw(path)


@pytest.mark.parametrize("header, payload_bytes, names", [
    ("height=abc width=4\n", None, "invalid value for key 'height': "),
    ("height=4\n", None, "missing key 'width'"),
    ("height4 width=4\n", None, "'height4' is not a key=value pair"),
    ("", None, "missing key 'height'"),
    ("height=0 width=4\n", None,
     "invalid value for key 'height': must be at least 1, got 0"),
    (None, 7, "payload has 7 bytes, header says 4x4 float64 values (128 bytes)"),
])
def test_raw_read_names_the_file_and_key_of_a_fault(tmp_path, header,
                                                     payload_bytes, names):
    # A header fault names <path>.hdr and the key; a payload of the wrong
    # length names the payload file.
    path = tmp_path / "x.raw"
    write_raw(path, np.ones((4, 4)))
    if header is not None:
        (tmp_path / "x.raw.hdr").write_text(header)
        source = tmp_path / "x.raw.hdr"
    else:
        path.write_bytes(path.read_bytes()[:payload_bytes])
        source = path
    with pytest.raises(ValueError) as err:
        read_raw(path)
    assert str(err.value).startswith(f"{source}: {names}")


def read_p5(path) -> np.ndarray:
    """The samples of a 16-bit P5 file with a comment-free header."""
    magic, size, maxval, raster = path.read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P5", b"65535")
    w, h = map(int, size.split())
    return np.frombuffer(raster, dtype=">u2").reshape(h, w).astype(np.float64)


def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(8)
    img = np.floor(rng.random((11, 7)) * 65535)
    img.flat[0] = 65535.0  # pin the peak so rescaling is the identity
    path = tmp_path / "view.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_p5(path), img)


def test_pgm_rescales_and_clips(tmp_path):
    img = np.array([[-5.0, 0.0], [1.0, 3.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_p5(path), [[0.0, 0.0], [21845.0, 65535.0]])


def test_pgm_16bit_payload_is_big_endian(tmp_path):
    img = np.array([[65535.0, 256.0]])
    path = tmp_path / "endian.pgm"
    write_pgm(path, img)
    raster = path.read_bytes().split(b"\n65535\n", 1)[1]
    assert raster[:2] == b"\xff\xff" and raster[2:4] == b"\x01\x00"


# -- Operation tally ----------------------------------------------------


def test_count_transforms_tallies_block_only():
    img = np.ones((4, 4))
    dft2(img)  # outside the block, must not leak in
    with count_transforms() as c:
        spec = dft2(img)
        idft2(spec)
        idft2(spec)
    assert (c.fft2, c.ifft2, c.mults, c.adds) == (1, 2, 0, 0)


def test_count_transforms_nests():
    img = np.ones((4, 4))
    with count_transforms() as outer:
        dft2(img)
        with count_transforms() as inner:
            dft2(img)
        assert inner.fft2 == 1
    assert outer.fft2 == 2
