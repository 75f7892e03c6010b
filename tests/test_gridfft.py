import numpy as np
import pytest

from robustdeblur import gridfft
from robustdeblur.gridfft import (
    InverseTransformError,
    count_transforms,
    dft2,
    embed_psf,
    idft2,
    psf_to_otf,
    read_pgm,
    read_raw,
    write_pgm,
    write_raw,
)

from oracles import dense_blur_matrix, naive_dft2


def test_out_transforms_are_bitwise_numpy():
    # The solver's inner loop runs the private pair into buffers it reuses;
    # that must not move a bit, odd widths and frame stacks included.
    rng = np.random.default_rng(12)
    for shape in ((5, 7), (7, 6), (2, 9), (64, 64), (3, 64, 64)):
        x = rng.standard_normal(shape)
        grid = shape[-2:]
        expected = np.fft.rfft2(x)
        want = np.fft.irfft2(expected, s=grid)
        spec = np.empty(expected.shape, dtype=np.complex128)
        assert gridfft._rdft2(x, out=spec) is spec
        assert np.array_equal(spec.view(np.float64), expected.view(np.float64))
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


# -- PSF to OTF ---------------------------------------------------------


def test_delta_psf_gives_flat_otf():
    psf = np.zeros((8, 8))
    psf[3, 5] = 1.0
    otf = psf_to_otf(psf, (3, 5))
    assert np.max(np.abs(otf - 1.0)) < 1e-12


def test_symmetric_psf_gives_real_otf():
    # Even symmetry about the center makes the rolled kernel even about
    # the origin, so the spectrum is real.
    x = np.arange(-4, 4)
    g = np.exp(-0.3 * x**2)
    psf = np.outer(g, g)
    otf = psf_to_otf(psf, (4, 4))
    assert np.max(np.abs(otf.imag)) < 1e-12


def test_otf_matches_dense_circulant_matrix():
    rng = np.random.default_rng(23)
    x8 = np.arange(-4, 4)
    g = np.exp(-0.5 * (x8 / 1.5) ** 2)
    psf = np.outer(g, g)
    psf /= psf.sum()
    center = (4, 4)
    otf = psf_to_otf(psf, center)
    A = dense_blur_matrix(psf, center)
    x = rng.standard_normal((8, 8))
    via_fft = idft2(otf * dft2(x))
    via_dense = (A @ x.ravel()).reshape(8, 8)
    assert np.max(np.abs(via_fft - via_dense)) < 1e-10


def test_unit_sum_psf_has_unit_dc_gain():
    rng = np.random.default_rng(2)
    psf = rng.random((7, 9))
    psf /= psf.sum()
    otf = psf_to_otf(psf, (3, 4))
    assert abs(otf[0, 0] - 1.0) < 1e-12


def test_center_outside_grid_rejected():
    with pytest.raises(ValueError):
        psf_to_otf(np.ones((4, 4)) / 16, (4, 0))
    with pytest.raises(ValueError):
        psf_to_otf(np.ones((4, 4)) / 16, (0, -1))


def test_embed_psf_pads_top_left():
    small = np.arange(6.0).reshape(2, 3)
    padded, center = embed_psf(small, (5, 5), (1, 1))
    assert padded.shape == (5, 5)
    assert np.array_equal(padded[:2, :3], small)
    assert padded[2:, :].sum() == 0 and padded[:, 3:].sum() == 0
    assert center == (1, 1)
    with pytest.raises(ValueError):
        embed_psf(small, (1, 1), (0, 0))


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


def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(8)
    img = np.floor(rng.random((11, 7)) * 65535)
    img.flat[0] = 65535.0  # pin the peak so rescaling is the identity
    path = tmp_path / "view.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back, img)
    assert path.read_bytes()[:2] == b"P5"


def test_pgm_round_trip_8bit(tmp_path):
    img = np.arange(256.0).reshape(16, 16)
    path = tmp_path / "small.pgm"
    write_pgm(path, img, maxval=255)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_rescales_and_clips(tmp_path):
    img = np.array([[-5.0, 0.0], [1.0, 2.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, img, maxval=100)
    back = read_pgm(path)
    assert np.array_equal(back, [[0.0, 0.0], [50.0, 100.0]])


def test_pgm_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n0 1 2\n3 4 5\n")
    assert np.array_equal(read_pgm(path), [[0, 1, 2], [3, 4, 5]])


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
