"""Synthetic deblurring problems: scenes, PSFs, noise, outliers, metrics.

Generation is deterministic given the seeds.  Noise streams are spawned
per frame from a single root seed, so each frame draws its own noise.
Corruptions are random: a fraction of entries gets a uniform positive
bump (dead/hot pixels, cosmic ray hits).  A lambda scan drives the GCV
search's walk over lambda along a grid, unscored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gridfft import (_arg, _checked, _field, _finite_float, _fraction,
                      _grid_shape, _keep_checked, _nonneg_float, _nonneg_int,
                      _positive_float, _positive_int, _read_key_values, _ruled,
                      read_raw, write_raw)
from .gcv import GcvOptions, LambdaPoint, _Walk
from .objective import LossFunction, Objective
from .operators import BlurOperator
from .solver import SolverOptions

__all__ = [
    "GaussianPsfParams",
    "CARBON_ASH_PSF_PARAMS",
    "ProblemInstance",
    "gaussian_psf",
    "psf_center",
    "synthetic_scene",
    "simulate_data",
    "inject_random_corruptions",
    "make_instance",
    "relative_error",
    "lambda_scan",
    "save_instance",
    "load_instance",
]


@dataclass(frozen=True)
class GaussianPsfParams:
    """Anisotropic Gaussian kernel parameters (pixels).

    The covariance is C = [[gamma1^2, tau^2], [tau^2, gamma2^2]]; tau
    tilts the kernel axes.  Positive definiteness requires
    gamma1^2 gamma2^2 > tau^4.  All three must be finite.
    """

    gamma1: float = _ruled(_positive_float)
    gamma2: float = _ruled(_positive_float)
    tau: float = _ruled(_finite_float, 0.0)

    def __post_init__(self):
        _keep_checked(self)
        if self.det() <= 0:
            raise ValueError(
                f"covariance not positive definite: gamma1^2*gamma2^2 - tau^4 "
                f"= {self.det():g} <= 0"
            )

    def det(self) -> float:
        return (self.gamma1 * self.gamma2) ** 2 - self.tau**4


# Three-frame setup with one tilted and two axis-aligned kernels.
CARBON_ASH_PSF_PARAMS = (
    GaussianPsfParams(4.0, 2.0, 2.0),
    GaussianPsfParams(4.0, 2.0, 0.0),
    GaussianPsfParams(2.0, 4.0, 0.0),
)


def psf_center(shape) -> tuple[int, int]:
    return (shape[0] // 2, shape[1] // 2)


def gaussian_psf(params: GaussianPsfParams, shape) -> np.ndarray:
    """Evaluate the Gaussian kernel on the centered grid, unit-normalized.

    density(s, t) = exp(-[s t] C^{-1} [s t]^T / 2) / (2 pi sqrt(det C)).
    Normalizing the discrete samples to unit sum keeps blurred intensities
    on the scale of the scene.
    """
    h, w = int(shape[0]), int(shape[1])
    ci, cj = psf_center((h, w))
    s = (np.arange(h) - ci)[:, None]
    t = (np.arange(w) - cj)[None, :]
    det = params.det()
    # inverse of [[g1^2, tau^2], [tau^2, g2^2]]
    a = params.gamma2**2 / det
    b = -(params.tau**2) / det
    c = params.gamma1**2 / det
    quad = a * s * s + 2.0 * b * s * t + c * t * t
    psf = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
    return psf / psf.sum()


def synthetic_scene(kind: str, shape, max_intensity: float = 255.0,
                    seed: int = 0) -> np.ndarray:
    """Deterministic nonnegative test scene with peak ``max_intensity``.

    ``satellite``: a bright body with two solar panels and an antenna mast
    on a dark background (sharp edges, lots of black sky).
    ``ash``: overlapping soft blobs of varying intensity (extended smooth
    structure, little true black).
    """
    max_intensity = _arg("max_intensity", _positive_float, max_intensity)
    seed = _arg("seed", _nonneg_int, seed)
    h, w = int(shape[0]), int(shape[1])
    u = (np.arange(h) - h / 2.0)[:, None] / (h / 2.0)
    v = (np.arange(w) - w / 2.0)[None, :] / (w / 2.0)
    if kind == "satellite":
        img = np.zeros((h, w))
        body = (np.abs(u) < 0.18) & (np.abs(v) < 0.12)
        img[body] = 1.0
        panels = (np.abs(u) < 0.10) & (np.abs(v) > 0.16) & (np.abs(v) < 0.55)
        img[panels] = 0.7
        mast = (np.abs(v) < 0.03) & (u > -0.52) & (u < -0.16)
        img[mast] = 0.9
        dish = (u + 0.56) ** 2 + v**2 < 0.06**2
        img[dish] = 1.0
    elif kind == "ash":
        rng = np.random.default_rng(seed)
        img = np.zeros((h, w))
        for _ in range(12):
            cu, cv = rng.uniform(-0.7, 0.7, 2)
            width = rng.uniform(0.08, 0.3)
            amp = rng.uniform(0.3, 1.0)
            img += amp * np.exp(-((u - cu) ** 2 + (v - cv) ** 2) / (2 * width**2))
        img = np.clip(img, 0.0, None)
    else:
        raise ValueError(f"unknown scene kind {kind!r}")
    peak = img.max()
    if peak <= 0:
        raise ValueError("scene degenerated to all zeros")
    return img * (max_intensity / peak)


@dataclass
class ProblemInstance:
    """A generated inverse problem plus everything needed to regenerate it."""

    x_true: np.ndarray
    op: BlurOperator
    clean: np.ndarray
    observed: np.ndarray
    outlier_mask: np.ndarray
    sigma: float
    seeds: tuple  # (noise_seed, outlier_seed)
    psfs: list = field(default_factory=list)
    centers: list = field(default_factory=list)
    psf_params: tuple = ()
    kind: str = ""
    outlier_fraction: float = 0.0
    outlier_ceiling: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_true.shape

    @property
    def n_frames(self) -> int:
        return self.observed.shape[0]

    def objective(self, loss: LossFunction | None = None,
                  lam: float = 0.0) -> Objective:
        return Objective(self.op, self.observed, self.sigma, loss, lam)


def simulate_data(clean, sigma: float, noise_seed: int):
    """Observed frames: Poisson(clean) + sigma * standard normal.

    ``clean`` is the blurred scene ``A x_true``, a finite (k, h, w) stack.
    Frame ``j`` draws from stream ``j`` spawned off ``noise_seed`` (Poisson
    first, then the Gaussian part).  Blurred values within the negativity
    tolerance of zero (1e-9 of the stack's peak) are snapped to exactly 0
    first: the Poisson sampler draws no uniform for a zero rate but does
    for a rounding-level positive one, so leaving them would let transform
    rounding shift the rest of the frame's noise stream.  Because that
    tolerance follows the whole stack's peak, a frame's draws are not
    reproducible on their own: changing another frame can move the peak,
    snap a different set of this frame's cells, and so change its noise.
    """
    noise_seed = _arg("noise_seed", _nonneg_int, noise_seed)
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 3 or not clean.size or not np.all(np.isfinite(clean)):
        raise ValueError(f"clean must be a finite (k, h, w) stack, got {clean.shape}")
    sigma = _arg("sigma", _nonneg_float, sigma)
    tol = 1e-9 * max(clean.max(), 1.0)
    if clean.min() < -tol:
        raise ValueError("blurred scene has negative intensities")
    observed = np.empty_like(clean)
    streams = np.random.SeedSequence(noise_seed).spawn(clean.shape[0])
    for j, rate in enumerate(np.where(clean <= tol, 0.0, clean)):
        rng = np.random.default_rng(streams[j])
        counts = rng.poisson(rate).astype(np.float64)
        observed[j] = counts + sigma * rng.standard_normal(rate.shape)
    return observed


def inject_random_corruptions(observed, fraction: float, ceiling: float,
                              outlier_seed: int):
    """Add uniform(0, ceiling) bumps to floor(fraction * m) distinct entries."""
    outlier_seed = _arg("outlier_seed", _nonneg_int, outlier_seed)
    observed = np.array(observed, dtype=np.float64, copy=True)
    fraction = _arg("fraction", _fraction, fraction)
    ceiling = _arg("ceiling", _nonneg_float, ceiling)
    mask = np.zeros(observed.shape, dtype=bool)
    count = int(np.floor(fraction * observed.size))
    if count:
        rng = np.random.default_rng(outlier_seed)
        flat = rng.choice(observed.size, size=count, replace=False)
        observed.ravel()[flat] += rng.uniform(0.0, ceiling, size=count)
        mask.ravel()[flat] = True
    return observed, mask


def _psf_param_tuple(psf_params) -> tuple:
    """``psf_params`` as a tuple of one or more :class:`GaussianPsfParams`."""
    try:
        params = tuple(psf_params)
    except TypeError:
        params = ()
    if not params or not all(isinstance(p, GaussianPsfParams) for p in params):
        raise ValueError(
            f"psf_params must be one or more GaussianPsfParams, got {psf_params!r}"
        )
    return params


def make_instance(
    kind: str = "satellite",
    shape=(64, 64),
    psf_params=None,
    sigma: float = 5.0,
    noise_seed: int = 1,
    outlier_fraction: float = 0.0,
    outlier_ceiling: float | None = None,
    outlier_seed: int = 2,
    max_intensity: float = 255.0,
    scene_seed: int = 0,
) -> ProblemInstance:
    """Generate a full synthetic problem.

    ``psf_params`` is a sequence of :class:`GaussianPsfParams`, one per
    frame; the default is a single tilted kernel for ``satellite`` and the
    three-frame set for ``ash``.  ``outlier_ceiling`` defaults to the peak
    of the clean data, so corruption bumps are on the data's own scale.
    ``shape`` is two integers, each at least 2.  Every argument is checked
    first, before any transform, and a bad one raises ``ValueError``
    naming it.
    """
    noise_seed = _arg("noise_seed", _nonneg_int, noise_seed)
    outlier_seed = _arg("outlier_seed", _nonneg_int, outlier_seed)
    scene_seed = _arg("scene_seed", _nonneg_int, scene_seed)
    shape = _arg("shape", _grid_shape, shape)
    sigma = _arg("sigma", _nonneg_float, sigma)
    outlier_fraction = _arg("outlier_fraction", _fraction, outlier_fraction)
    if outlier_ceiling is not None:
        outlier_ceiling = _arg("outlier_ceiling", _nonneg_float, outlier_ceiling)
    if psf_params is None:
        psf_params = (
            CARBON_ASH_PSF_PARAMS
            if kind == "ash"
            else (GaussianPsfParams(4.0, 2.0, 2.0),)
        )
    psf_params = _psf_param_tuple(psf_params)
    x_true = synthetic_scene(kind, shape, max_intensity, scene_seed)
    center = psf_center(shape)
    psfs = [gaussian_psf(p, shape) for p in psf_params]
    centers = [center] * len(psfs)
    op = BlurOperator(psfs, centers)
    clean = op.apply(x_true)
    observed = simulate_data(clean, sigma, noise_seed)
    if outlier_ceiling is None:
        outlier_ceiling = float(clean.max())
    observed, mask = inject_random_corruptions(
        observed, outlier_fraction, outlier_ceiling, outlier_seed
    )
    return ProblemInstance(
        x_true=x_true,
        op=op,
        clean=clean,
        observed=observed,
        outlier_mask=mask,
        sigma=sigma,
        seeds=(noise_seed, outlier_seed),
        psfs=psfs,
        centers=centers,
        psf_params=psf_params,
        kind=kind,
        outlier_fraction=outlier_fraction,
        outlier_ceiling=float(outlier_ceiling),
    )


def relative_error(x, x_true) -> float:
    x = np.asarray(x, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if x.shape != x_true.shape:
        raise ValueError("shapes differ")
    denom = np.linalg.norm(x_true)
    if denom == 0:
        raise ValueError("x_true is identically zero")
    return float(np.linalg.norm(x - x_true) / denom)


def lambda_scan(
    instance: ProblemInstance,
    loss: LossFunction,
    lambda_grid,
    opts: SolverOptions | None = None,
    x0=None,
) -> list[LambdaPoint]:
    """Solve along an ascending lambda grid, warm-starting each point.

    Returns one :class:`.gcv.LambdaPoint` per grid value, without GCV
    fields, from a :class:`.gcv._Walk` started at ``x0`` (None: the
    default start); a repeated value repeats its first point.  Each point
    is solved only to the solver's stop test from the previous point's
    solution, so the curve depends on the order the grid is visited.  A
    point whose warm start already meets the test
    (:func:`.solver.projected_newton`) returns that start unchanged after
    0 Newton steps, and since the Talwar loss is not convex a warm solve
    may keep a different saturated set than a cold one.  On the default
    64x64 ash instance, a 13-point geometric grid over [0.012, 0.040] has
    5 such unchanged points, whose relative error differs from a cold
    solve's by up to 2.7% (2.6% with the preconditioner).  As in a GCV
    search, each solve hands its end state to the next, so a point starts
    from the previous solve's evaluation and gradient and reads ``pg_ref``
    from the parts of the default start the walk holds; each solution is
    bitwise that of a standalone solve from the same start.  The points'
    ``x`` are read-only: each is the state the walk handed on.
    """
    grid = [_arg("lambda_grid value", _nonneg_float, lam) for lam in lambda_grid]
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be ascending")
    walk = _Walk(instance.objective(loss),
                 GcvOptions(solver=opts or SolverOptions()), x0)
    return [walk.visit(lam) for lam in grid]


# -- serialization ------------------------------------------------------


def save_instance(directory, instance: ProblemInstance) -> None:
    """Write raw arrays plus a plain-text manifest into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_raw(directory / "x_true.raw", instance.x_true)
    for j in range(instance.n_frames):
        write_raw(directory / f"psf_{j}.raw", instance.psfs[j])
        write_raw(directory / f"clean_{j}.raw", instance.clean[j])
        write_raw(directory / f"observed_{j}.raw", instance.observed[j])
        write_raw(
            directory / f"outlier_mask_{j}.raw",
            instance.outlier_mask[j].astype(np.float64),
        )
    lines = [
        "format=instance-dir v1",
        f"kind={instance.kind}",
        f"height={instance.shape[0]}",
        f"width={instance.shape[1]}",
        f"frames={instance.n_frames}",
        f"sigma={instance.sigma!r}",
        f"noise_seed={instance.seeds[0]}",
        f"outlier_seed={instance.seeds[1]}",
        f"outlier_fraction={instance.outlier_fraction!r}",
        f"outlier_ceiling={instance.outlier_ceiling!r}",
    ]
    for j, p in enumerate(instance.psf_params):
        lines.append(f"psf{j}_params={p.gamma1!r},{p.gamma2!r},{p.tau!r}")
    for j, c in enumerate(instance.centers):
        lines.append(f"psf{j}_center={c[0]},{c[1]}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_instance(directory) -> ProblemInstance:
    """Read an instance written by :func:`save_instance`.  Each manifest
    value is checked as it is read (``sigma``, the seeds, the outlier
    fraction and ceiling by the rules of the CLI's keys of those names),
    and ``height`` and ``width`` must be the shape of ``x_true.raw``; a
    fault raises ``ValueError`` naming ``<directory>/manifest.txt`` and
    the key.  Every per-frame image must
    lie on the grid of ``x_true.raw``, or the error names its file.  The
    ``psf{j}_params`` lines are optional but all or none: once one
    frame's is present, a missing one is a fault."""
    directory = Path(directory)
    path = directory / "manifest.txt"
    manifest = dict(_read_key_values(path))

    def field(key, convert=str, default=None):
        return _field(manifest, key, path, convert, default)

    field("format", _checked(str, "instance-dir v1".__eq__,
                             "must be 'instance-dir v1'"))
    frames = field("frames", _positive_int)
    x_true = read_raw(directory / "x_true.raw")
    grid = h, w = x_true.shape
    field("height", _checked(int, lambda v: v == h, f"x_true.raw has {h}"))
    field("width", _checked(int, lambda v: v == w, f"x_true.raw has {w}"))
    center = _checked(_numbers(int, 2),
                      lambda c: 0 <= c[0] < h and 0 <= c[1] < w,
                      f"must lie in the {h}x{w} grid of x_true.raw")
    psfs, centers, clean, observed, masks = [], [], [], [], []
    for j in range(frames):
        psfs.append(read_raw(directory / f"psf_{j}.raw", grid))
        centers.append(field(f"psf{j}_center", center))
        clean.append(read_raw(directory / f"clean_{j}.raw", grid))
        observed.append(read_raw(directory / f"observed_{j}.raw", grid))
        masks.append(read_raw(directory / f"outlier_mask_{j}.raw", grid) != 0.0)
    has_params = any(f"psf{j}_params" in manifest for j in range(frames))
    psf_params = tuple(
        field(f"psf{j}_params",
              lambda text: GaussianPsfParams(*_numbers(float, 3)(text)))
        for j in range(frames if has_params else 0)
    )
    return ProblemInstance(
        x_true=x_true,
        op=BlurOperator(psfs, centers),
        clean=np.stack(clean),
        observed=np.stack(observed),
        outlier_mask=np.stack(masks),
        sigma=field("sigma", _nonneg_float),
        seeds=(field("noise_seed", _nonneg_int),
               field("outlier_seed", _nonneg_int)),
        psfs=psfs,
        centers=centers,
        psf_params=psf_params,
        kind=field("kind", default=""),
        outlier_fraction=field("outlier_fraction", _fraction, default=0.0),
        outlier_ceiling=field("outlier_ceiling", _nonneg_float, default=0.0),
    )


def _numbers(convert, count: int):
    """Manifest parser: ``count`` comma-separated ``convert`` values."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != count:
            raise ValueError(f"expected {count} comma-separated values, got {len(parts)}")
        return tuple(convert(p) for p in parts)

    return parse
