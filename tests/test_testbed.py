import numpy as np
import pytest

from robustdeblur.gridfft import count_transforms
from robustdeblur.objective import LossFunction
from robustdeblur.operators import BlurOperator
from robustdeblur.solver import SolverOptions, default_start, projected_newton
from robustdeblur.testbed import (
    CARBON_ASH_PSF_PARAMS,
    GaussianPsfParams,
    gaussian_psf,
    inject_random_corruptions,
    lambda_scan,
    load_instance,
    make_instance,
    psf_center,
    relative_error,
    save_instance,
    simulate_data,
    synthetic_scene,
)


def identity_operator(shape):
    psf = np.zeros(shape)
    psf[0, 0] = 1.0
    return BlurOperator([psf], [(0, 0)])


# -- PSFs ----------------------------------------------------------------


def test_psf_params_validation():
    GaussianPsfParams(4.0, 2.0, 2.0)  # 16*4 - 16 = 48 > 0
    with pytest.raises(ValueError):
        GaussianPsfParams(1.0, 1.0, 2.0)  # 1 - 16 < 0
    with pytest.raises(ValueError):
        GaussianPsfParams(-1.0, 2.0)


def test_gaussian_psf_unit_sum_and_nonnegative():
    psf = gaussian_psf(GaussianPsfParams(4.0, 2.0, 2.0), (32, 32))
    assert psf.min() >= 0
    assert psf.sum() == pytest.approx(1.0)


def test_gaussian_psf_separable_when_untilted():
    shape = (16, 16)
    g1, g2 = 3.0, 1.5
    psf = gaussian_psf(GaussianPsfParams(g1, g2, 0.0), shape)
    ci, cj = psf_center(shape)
    row = np.exp(-0.5 * ((np.arange(16) - ci) / g1) ** 2)
    col = np.exp(-0.5 * ((np.arange(16) - cj) / g2) ** 2)
    outer = np.outer(row, col)
    outer /= outer.sum()
    assert np.max(np.abs(psf - outer)) < 1e-12


def test_gaussian_psf_point_symmetric_about_center():
    shape = (17, 17)  # odd grid so (-a, -b) stays inside
    psf = gaussian_psf(GaussianPsfParams(4.0, 2.0, 2.0), shape)
    ci, cj = psf_center(shape)
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert psf[ci + a, cj + b] == pytest.approx(
                psf[ci - a, cj - b], rel=1e-12
            )


def test_three_frame_psf_set_is_distinct():
    shape = (16, 16)
    kernels = [gaussian_psf(p, shape) for p in CARBON_ASH_PSF_PARAMS]
    assert not np.allclose(kernels[0], kernels[1])
    assert not np.allclose(kernels[1], kernels[2])


# -- scenes --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["satellite", "ash"])
def test_scene_scaled_to_peak_intensity(kind):
    img = synthetic_scene(kind, (48, 48))
    assert img.min() >= 0.0
    assert img.max() == pytest.approx(255.0)
    assert np.array_equal(img, synthetic_scene(kind, (48, 48)))


def test_scene_unknown_kind_rejected():
    with pytest.raises(ValueError):
        synthetic_scene("moon", (16, 16))


# -- noise simulation ----------------------------------------------------


def test_simulated_moments_match_model():
    # flat scene at 50 counts, sigma 5: mean 50, variance 50 + 25
    shape = (100, 100)
    op = identity_operator(shape)
    x_true = np.full(shape, 50.0)
    b = simulate_data(op.apply(x_true), sigma=5.0, noise_seed=7)[0]
    n = b.size
    assert abs(b.mean() - 50.0) < 3.0 * np.sqrt(75.0 / n)
    assert abs(b.var() - 75.0) < 0.1 * 75.0


def test_zero_signal_zero_sigma_gives_zero_data():
    shape = (8, 8)
    op = identity_operator(shape)
    b = simulate_data(op.apply(np.zeros(shape)), sigma=0.0, noise_seed=3)
    assert np.all(b == 0.0)


def test_simulation_is_seed_deterministic():
    shape = (16, 16)
    op = identity_operator(shape)
    clean = op.apply(np.full(shape, 20.0))
    b1 = simulate_data(clean, 5.0, noise_seed=11)
    b2 = simulate_data(clean, 5.0, noise_seed=11)
    b3 = simulate_data(clean, 5.0, noise_seed=12)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(b1, b3)


def test_observations_ignore_rounding_level_changes_in_clean_data():
    inst = make_instance("satellite", (64, 64), noise_seed=11)
    # the black sky blurs to values within rounding of zero
    assert np.sum(np.abs(inst.clean) < 1e-12) > 100
    for delta in (1e-13, -1e-13):
        # a unit-sum kernel carries a constant shift of the truth into clean
        shifted = simulate_data(inst.op.apply(inst.x_true + delta), inst.sigma, 11)
        assert np.array_equal(shifted, inst.observed)


def test_each_frame_draws_its_own_noise_stream():
    # Frame j draws from stream j: two operators that share frame 0's
    # kernel give it bitwise-equal data.  (The snapping tolerance follows
    # the peak of the whole stack; the ash scene blurs to no value near it.)
    shape = (32, 32)
    x_true = synthetic_scene("ash", shape)
    psfs = [gaussian_psf(p, shape) for p in CARBON_ASH_PSF_PARAMS]
    centers = [psf_center(shape)] * 2
    a = simulate_data(BlurOperator(psfs[:2], centers).apply(x_true), 5.0, 21)
    b = simulate_data(BlurOperator(psfs[::2], centers).apply(x_true), 5.0, 21)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1], b[1])


def test_simulate_data_checks_the_clean_stack():
    clean = np.full((2, 8, 8), 10.0)
    assert simulate_data(clean, 1.0, 5).shape == clean.shape
    infinite = clean.copy()
    infinite[1, 0, 0] = np.inf
    for bad in (clean[0], infinite, np.zeros((0, 8, 8))):
        with pytest.raises(ValueError, match=r"finite \(k, h, w\) stack"):
            simulate_data(bad, 1.0, 5)
    with pytest.raises(ValueError, match="negative intensities"):
        simulate_data(clean - 20.0, 1.0, 5)
    with pytest.raises(ValueError, match="sigma"):
        simulate_data(clean, -1.0, 5)


def test_make_instance_blurs_the_scene_once():
    # Two spectra per frame PSF (the kernel and its square) and one forward
    # apply, whose result is both the clean stack and the noise's mean.
    with count_transforms() as tally:
        inst = make_instance("ash", (32, 32), noise_seed=5)
    k = inst.n_frames
    assert tally.fft2 + tally.ifft2 == 2 * k + (1 + k)
    assert np.array_equal(inst.clean, inst.op.apply(inst.x_true))
    assert np.array_equal(inst.observed, simulate_data(inst.clean, inst.sigma, 5))


# -- corruptions ---------------------------------------------------------


def test_zero_fraction_leaves_data_unchanged():
    rng = np.random.default_rng(1)
    b = rng.random((2, 8, 8))
    out, mask = inject_random_corruptions(b, 0.0, 10.0, 5)
    assert np.array_equal(out, b)
    assert not mask.any()


def test_full_fraction_bumps_every_entry():
    rng = np.random.default_rng(2)
    b = rng.random((1, 8, 8))
    out, mask = inject_random_corruptions(b, 1.0, 10.0, 5)
    assert mask.all()
    assert np.all(out >= b)
    assert np.all(out - b <= 10.0)
    assert (out > b).mean() > 0.99  # uniform draws are almost surely positive


def test_corruption_count_uses_floor():
    b = np.zeros((1, 64, 64))  # m = 4096
    _, mask = inject_random_corruptions(b, 0.1, 1.0, 5)
    assert mask.sum() == 409


def test_corruption_is_bitwise_repeatable():
    rng = np.random.default_rng(3)
    b = rng.random((1, 16, 16))
    out1, mask1 = inject_random_corruptions(b, 0.2, 5.0, 9)
    out2, mask2 = inject_random_corruptions(b, 0.2, 5.0, 9)
    assert np.array_equal(out1, out2)
    assert np.array_equal(mask1, mask2)


# -- metrics -------------------------------------------------------------


def test_relative_error_values():
    x_true = np.ones((4, 4))
    assert relative_error(x_true, x_true) == 0.0
    assert relative_error(np.zeros((4, 4)), x_true) == 1.0
    assert relative_error(2.0 * x_true, x_true) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(x_true, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="shapes differ"):
        relative_error(np.ones((4, 5)), x_true)


def test_default_start_is_feasible_frame_mean():
    observed = np.stack([np.full((4, 4), -2.0), np.full((4, 4), 6.0)])
    x0 = default_start(observed)
    assert np.all(x0 == 2.0)
    x0 = default_start(np.full((4, 4), -1.0))
    assert np.all(x0 == 0.0)


# -- instance generation and scans ---------------------------------------


def test_instance_invariants():
    inst = make_instance("satellite", (32, 32), outlier_fraction=0.1,
                         noise_seed=5, outlier_seed=6)
    assert np.max(np.abs(inst.clean - inst.op.apply(inst.x_true))) < 1e-12
    assert inst.x_true.min() >= 0.0
    assert inst.outlier_mask.sum() == int(0.1 * inst.observed.size)
    again = make_instance("satellite", (32, 32), outlier_fraction=0.1,
                          noise_seed=5, outlier_seed=6)
    assert np.array_equal(inst.observed, again.observed)


def test_lambda_scan_single_point():
    inst = make_instance("satellite", (16, 16), noise_seed=31)
    curve = lambda_scan(inst, LossFunction(), [1e-4],
                        SolverOptions(newton_maxit=20))
    assert len(curve) == 1
    assert curve[0].lam == 1e-4
    assert 0.0 < relative_error(curve[0].x, inst.x_true) < 1.0


def test_lambda_scan_requires_ascending_grid():
    inst = make_instance("satellite", (16, 16))
    with pytest.raises(ValueError):
        lambda_scan(inst, LossFunction(), [1e-2, 1e-3])
    with pytest.raises(ValueError):
        lambda_scan(inst, LossFunction(), [])


def test_lambda_scan_records_iterations():
    inst = make_instance("satellite", (16, 16), noise_seed=32)
    grid = [1e-5, 1e-4, 1e-3]
    curve = lambda_scan(inst, LossFunction(), grid,
                        SolverOptions(newton_maxit=25))
    assert [p.lam for p in curve] == grid
    assert all(p.newton_report.iterations >= 1 for p in curve)
    assert all(p.newton_report.termination in ("converged", "max_iterations")
               for p in curve)


def test_lambda_scan_matches_standalone_solves_for_fewer_transforms():
    # The scan's solves share the lambda-free work of the previous solve's
    # last iterate and of the default start; each point must still be
    # bitwise the standalone solve from the same warm start.
    inst = make_instance("satellite", (16, 16), noise_seed=32)
    grid = [1e-5, 1e-4, 1e-3]
    opts = SolverOptions(newton_maxit=25)
    with count_transforms() as scan:
        curve = lambda_scan(inst, LossFunction(), grid, opts)
    obj = inst.objective(LossFunction())
    x = default_start(inst.observed)
    with count_transforms() as standalone:
        for point in curve:
            x, report = projected_newton(obj.with_lambda(point.lam), x, opts)
            assert np.array_equal(point.x, x)
            assert point.newton_report.iterations == report.iterations
            assert point.newton_report.termination == report.termination
    assert scan.fft2 + scan.ifft2 < standalone.fft2 + standalone.ifft2


# -- serialization -------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    inst = make_instance("ash", (16, 16), outlier_fraction=0.05,
                         noise_seed=41, outlier_seed=42)
    save_instance(tmp_path / "inst", inst)
    back = load_instance(tmp_path / "inst")
    assert np.array_equal(back.x_true, inst.x_true)
    assert np.array_equal(back.observed, inst.observed)
    assert np.array_equal(back.clean, inst.clean)
    assert np.array_equal(back.outlier_mask, inst.outlier_mask)
    assert back.sigma == inst.sigma
    assert back.seeds == inst.seeds
    assert back.psf_params == inst.psf_params
    assert back.kind == inst.kind
    # the rebuilt operator behaves identically
    probe = np.abs(np.sin(np.arange(256.0))).reshape(16, 16)
    assert np.allclose(back.op.apply(probe), inst.op.apply(probe), atol=1e-13)


def test_load_fills_the_optional_manifest_keys(tmp_path):
    # A manifest without kind, outlier_fraction, outlier_ceiling and the
    # psf parameters loads with their defaults and the same arrays.
    inst = make_instance("ash", (16, 16), outlier_fraction=0.05,
                         noise_seed=43, outlier_seed=44)
    save_instance(tmp_path, inst)
    full = load_instance(tmp_path)
    manifest = tmp_path / "manifest.txt"
    optional = ("kind=", "outlier_fraction=", "outlier_ceiling=")
    manifest.write_text("".join(
        line + "\n" for line in manifest.read_text().splitlines()
        if not (line.startswith(optional) or "_params=" in line)
    ))
    back = load_instance(tmp_path)
    assert (back.kind, back.outlier_fraction, back.outlier_ceiling,
            back.psf_params) == ("", 0.0, 0.0, ())
    assert full.psf_params and full.outlier_fraction == 0.05
    assert np.array_equal(back.observed, full.observed)
    for name in ("_otf_half", "_gram_half", "_sq_otf_half_adj"):
        assert np.array_equal(getattr(back.op, name), getattr(full.op, name))


def test_load_rejects_a_partial_set_of_psf_params(tmp_path):
    # Frame 2's parameters must not be read as frame 1's when frame 1's
    # line is gone: the psf*_params lines are all or none.
    save_instance(tmp_path, make_instance("ash", (16, 16)))
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    for missing in ("psf0_params", "psf1_params", "psf2_params"):
        manifest.write_text("".join(
            line + "\n" for line in lines if not line.startswith(missing + "=")
        ))
        with pytest.raises(ValueError) as err:
            load_instance(tmp_path)
        assert str(err.value) == f"{manifest}: missing key {missing!r}"


def test_load_rejects_unknown_format(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "manifest.txt").write_text("format=something-else\n")
    with pytest.raises(ValueError) as err:
        load_instance(d)
    assert str(err.value) == (
        f"{d / 'manifest.txt'}: invalid value for key 'format': "
        "must be 'instance-dir v1', got something-else"
    )


def test_load_rejects_a_manifest_line_without_equals(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "manifest.txt").write_text("# comment\n\nformat=instance-dir v1\nframes 1\n")
    with pytest.raises(ValueError) as err:
        load_instance(d)
    assert str(err.value) == (
        f"{d / 'manifest.txt'}: line 4 is not a key=value pair: 'frames 1'"
    )


def test_load_names_the_manifest_and_a_missing_key(tmp_path):
    (tmp_path / "manifest.txt").write_text("format=instance-dir v1\n")
    with pytest.raises(ValueError) as err:
        load_instance(tmp_path)
    assert str(err.value) == f"{tmp_path / 'manifest.txt'}: missing key 'frames'"

    # a malformed value names the manifest, the key and the fault
    save_instance(tmp_path, make_instance("ash", (8, 8)))
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    for key, value, reason in [
        ("frames", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("frames", "0", "must be at least 1, got 0"),
        ("frames", "-2", "must be at least 1, got -2"),
        ("psf0_center", "3", "expected 2 comma-separated values, got 1"),
        ("sigma", "x", "could not convert string to float: 'x'"),
    ]:
        manifest.write_text("".join(
            f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
            for line in lines
        ))
        with pytest.raises(ValueError) as err:
            load_instance(tmp_path)
        assert str(err.value) == f"{manifest}: invalid value for key {key!r}: {reason}"


def test_load_names_the_manifest_and_a_bad_seed(tmp_path):
    # The stored seeds are checked as make_instance checks them: a negative
    # or non-integer seed names the manifest and the key, in one line.
    save_instance(tmp_path, make_instance("ash", (8, 8), noise_seed=5, outlier_seed=6))
    assert load_instance(tmp_path).seeds == (5, 6)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    for key, value, reason in [
        ("noise_seed", "-5", "must be nonnegative, got -5"),
        ("outlier_seed", "-1", "must be nonnegative, got -1"),
        ("noise_seed", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ]:
        manifest.write_text("".join(
            f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
            for line in lines
        ))
        with pytest.raises(ValueError) as err:
            load_instance(tmp_path)
        assert str(err.value) == f"{manifest}: invalid value for key {key!r}: {reason}"
