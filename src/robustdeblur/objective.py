"""Robust weighted-least-squares objective with Tikhonov smoothing.

The data term scores each residual through a loss applied to the scaled
residual ``t_i = ([Ax]_i - b_i) / sqrt([Ax]_i + sigma^2)``; the scaling
makes inlier residuals approximately unit normal under mixed
Poisson-Gaussian noise, so a fixed saturation threshold ``beta`` is
meaningful across pixels.  The full objective is

    J(x) = sum_i rho(t_i) + (lam / 2) * ||L x||^2,   x >= 0,

with L the periodic 5-point Laplacian.

Because the weights depend on the solution through both the residual and
its variance, the gradient and Hessian carry extra chain-rule terms; see
:func:`chain_rule_weights`.  For the Talwar loss these collapse to short
closed forms that are nonnegative everywhere, which is what makes the
data-term Hessian positive semidefinite and Newton's method safe.  The
other losses are provided for evaluation and for
:func:`convexity_diagnostic` only; the solver rejects them.

:meth:`Objective.evaluate` gives the value, z, D and the inlier mask from
one ``A x`` (1 fft2 + k ifft2 for k frames), and :meth:`Objective.gradient_at`
the gradient from that (k fft2 + 1 ifft2, one more ifft2 when lam > 0).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .gridfft import _irdft2, _rdft2, _spectral_energy, as_image
from .operators import (
    BlurOperator,
    Workspace,
    _frozen,
    _penalty_symbol,
    as_stack,
    laplacian_symbol,
)

__all__ = [
    "BETA_95",
    "FLOOR",
    "LossFunction",
    "Objective",
    "Evaluation",
    "ConvexityReport",
    "loss_eval",
    "chain_rule_weights",
    "talwar_weights",
    "convexity_diagnostic",
]

# Talwar threshold with 95% asymptotic efficiency on unit-normal residuals.
BETA_95 = 2.795

# Variance floor applied before any division by [Ax] + sigma^2.  With
# x >= 0, nonnegative kernels, and sigma > 0 the floor is inert; it only
# guards the sigma = 0 corner where a dark pixel would divide by zero.
FLOOR = 1e-8

_KINDS = ("talwar", "huber", "fair", "logistic")


@dataclass(frozen=True)
class LossFunction:
    """Loss kind plus its saturation/scale parameter.

    ``beta = inf`` with the Talwar kind turns the loss quadratic
    everywhere, recovering plain (non-robust) weighted least squares.
    """

    kind: str = "talwar"
    beta: float = BETA_95

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {_KINDS}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


def loss_eval(loss: LossFunction, t):
    """Evaluate ``(rho(t), rho'(t), rho''(t))`` elementwise.

    All four losses satisfy rho >= 0, rho(0) = 0, rho(-t) = rho(t), and
    rho nondecreasing for t >= 0.  At the Talwar/Huber kink |t| = beta the
    inlier branch is closed (rho'(beta) = beta, rho''(beta) = 1) so the
    evaluation is total and deterministic.
    """
    t = np.asarray(t, dtype=np.float64)
    beta = loss.beta
    if loss.kind == "talwar":
        inlier = np.abs(t) <= beta
        rho = np.where(inlier, 0.5 * t * t, 0.5 * beta * beta)
        drho = np.where(inlier, t, 0.0)
        ddrho = np.where(inlier, 1.0, 0.0)
    elif loss.kind == "huber":
        inlier = np.abs(t) <= beta
        rho = np.where(inlier, 0.5 * t * t, beta * np.abs(t) - 0.5 * beta * beta)
        drho = np.where(inlier, t, beta * np.sign(t))
        ddrho = np.where(inlier, 1.0, 0.0)
    elif loss.kind == "fair":
        a = np.abs(t) / beta
        rho = beta * beta * (a - np.log1p(a))
        drho = t / (1.0 + a)
        ddrho = 1.0 / (1.0 + a) ** 2
    else:
        u = t / beta
        au = np.abs(u)
        # log(cosh(u)) = |u| + log1p(exp(-2|u|)) - log(2), overflow-safe
        rho = beta * beta * (au + np.log1p(np.exp(-2.0 * au)) - np.log(2.0))
        th = np.tanh(u)
        drho = beta * th
        ddrho = 1.0 - th * th
    if rho.ndim == 0:
        return float(rho), float(drho), float(ddrho)
    return rho, drho, ddrho


def chain_rule_weights(loss: LossFunction, ax, b, sigma):
    """Gradient weights z and Hessian diagonal D for any loss.

    With s = [Ax] + sigma^2, w = s^(-1/2), r = [Ax] - b, and t = w r,
    differentiating sum rho(w([Ax]) r([Ax])) through both factors gives

        z_i = (w' r + w) rho'(t),
        D_i = (w'' r + 2 w') rho'(t) + (w' r + w)^2 rho''(t).

    The w-derivative terms are what distinguish solution-dependent
    weighting from ordinary reweighted least squares.
    """
    ax = np.asarray(ax, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sigma2 = np.asarray(sigma, dtype=np.float64) ** 2
    s = np.maximum(ax + sigma2, FLOOR)
    r = ax - b
    w = s**-0.5
    wp = -0.5 * s**-1.5
    wpp = 0.75 * s**-2.5
    _, drho, ddrho = loss_eval(loss, w * r)
    z = (wp * r + w) * drho
    d = (wpp * r + 2.0 * wp) * drho + (wp * r + w) ** 2 * ddrho
    return z, d


def talwar_weights(ax, b, sigma: float, beta: float):
    """Closed-form Talwar z, D, and the inlier mask.

    On inliers (|t| <= beta) the chain rule simplifies to

        z_i = (1 - (b_i + sigma^2)^2 / s_i^2) / 2,
        D_i = (b_i + sigma^2)^2 / s_i^3,

    and both vanish on outliers.  D is nonnegative everywhere, so the
    data-term Hessian A^T D A is positive semidefinite for any iterate.
    """
    ax, b = np.broadcast_arrays(
        np.asarray(ax, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    shape, ax, b = ax.shape, ax.ravel(), b.ravel()  # the kernels write in place
    sigma2 = float(sigma) ** 2
    s, _, inlier = _scaled_terms(ax, b, sigma2, beta)
    z, d = _talwar_zd(s, ~inlier, (b + sigma2) ** 2)
    return z.reshape(shape), d.reshape(shape), inlier.reshape(shape)


def _scaled_terms(ax, b, sigma2: float, beta: float, out=(None, None, None)):
    """``s = max(Ax + sigma^2, FLOOR)``, ``t = (Ax - b) / sqrt(s)``, ``|t| <= beta``.

    ``out`` names the arrays that receive ``s``, ``t`` and one scratch
    (None: a fresh one); ``t``'s may be ``ax`` itself.
    """
    s = np.add(ax, sigma2, out=out[0])
    np.maximum(s, FLOOR, out=s)
    t = np.subtract(ax, b, out=out[1])
    root = np.sqrt(s, out=out[2])
    t /= root
    return s, t, np.abs(t, out=root) <= beta


def _talwar_zd(s, outlier, bs2, z=None):
    """The closed-form Talwar z and D of :func:`talwar_weights` from
    ``bs2 = (b + sigma^2)^2``; both are 0 on ``outlier``.

    Consumes ``s``: D is built in its array, and z in ``z`` (None: a
    fresh array).
    """
    z = np.square(s, out=z)
    np.divide(bs2, z, out=z)
    np.subtract(1.0, z, out=z)
    z *= 0.5
    np.copyto(z, 0.0, where=outlier)
    d = np.power(s, 3, out=s)
    np.divide(bs2, d, out=d)
    np.copyto(d, 0.0, where=outlier)
    return z, d


@dataclass(frozen=True)
class Evaluation:
    """Value, half spectrum ``x_hat`` of x, gradient weights, Hessian
    diagonal and inlier mask at one iterate; the arrays are read-only."""

    value: float
    x_hat: np.ndarray
    z: np.ndarray
    d: np.ndarray
    inlier_mask: np.ndarray


class Objective:
    """J(x) = sum rho(scaled residual) + (lam/2) ||L x||^2 on x >= 0.

    Immutable; shares the operator and data arrays, so copies are cheap.
    ``(b + sigma^2)^2``, which every Talwar evaluation reads, is computed
    once, kept read-only and shared by :meth:`with_lambda` copies.
    """

    def __init__(
        self,
        op: BlurOperator,
        data,
        sigma: float,
        loss: LossFunction | None = None,
        lam: float = 0.0,
        lap_sq: np.ndarray | None = None,
    ):
        self.op = op
        self.data = as_stack(data, op.shape, "data")
        if self.data.shape[0] != op.n_frames:
            raise ValueError(
                f"data has {self.data.shape[0]} frames, operator has {op.n_frames}"
            )
        if sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {sigma}")
        self.sigma = float(sigma)
        self.loss = loss if loss is not None else LossFunction()
        self.lap_sq = lap_sq if lap_sq is not None else laplacian_symbol(op.shape)
        self.data.setflags(write=False)
        self._bs2 = _frozen((self.data + self.sigma**2) ** 2)
        self._set_lam(lam)

    def _set_lam(self, lam) -> None:
        if lam < 0:
            raise ValueError(f"lam must be nonnegative, got {lam}")
        self.lam = float(lam)
        self._penalty = _frozen(_penalty_symbol(self.lap_sq, self.lam))

    def with_lambda(self, lam: float) -> "Objective":
        """The same objective at another ``lam``, sharing the data arrays."""
        other = copy.copy(self)
        other._set_lam(lam)
        return other

    @property
    def n_residuals(self) -> int:
        """Stacked residual length m = frames * pixels."""
        return int(self.data.size)

    def _check_x(self, x, feasible: bool) -> np.ndarray:
        x = as_image(x, "x")
        if x.shape != self.op.shape:
            raise ValueError(f"x shape {x.shape} != grid {self.op.shape}")
        if feasible and np.any(x < 0):
            raise ValueError("x must be elementwise nonnegative")
        return x

    def evaluate(self, x) -> Evaluation:
        """Everything the solver reads at a feasible x, from one ``A x``.

        For the Talwar loss the value, z and D are built in place: ``s``
        is held in D's array, ``t`` overwrites ``A x``, and z's array is
        scratch until z is built.
        """
        x = self._check_x(x, feasible=True)
        x_hat = _rdft2(x)
        ax = self.op._forward(x_hat)
        beta, sigma2 = self.loss.beta, self.sigma**2
        if self.loss.kind == "talwar":
            z, d = np.empty_like(ax), np.empty_like(ax)
            s, t, inlier = _scaled_terms(ax, self.data, sigma2, beta, out=(d, ax, z))
            outlier = ~inlier
            rho = np.multiply(0.5, t, out=z)
            rho *= t
            np.copyto(rho, 0.5 * beta * beta, where=outlier)
            value = float(np.sum(rho))
            z, d = _talwar_zd(s, outlier, self._bs2, z=z)
        else:
            s, t, inlier = _scaled_terms(ax, self.data, sigma2, beta)
            value = float(np.sum(loss_eval(self.loss, t)[0]))
            z, d = chain_rule_weights(self.loss, ax, self.data, self.sigma)
        if self.lam > 0:
            value += 0.5 * self.lam * _spectral_energy(self.lap_sq, x_hat, x.shape)
        return Evaluation(value, *map(_frozen, (x_hat, z, d, inlier)))

    def gradient_at(self, ev: Evaluation, ws: Workspace | None = None) -> np.ndarray:
        """The gradient at an evaluated point; its temporaries live in
        ``ws``, the solve's :class:`.operators.Workspace` (a throwaway one
        when None).

        The penalty term keeps its own inverse transform: summing the
        spectra first would change the rounding, and so the solver's path
        at float resolution."""
        ws = Workspace(self.op.shape, self.op.n_frames) if ws is None else ws
        spec = self.op._adjoint_spectrum(ev.z, scratch=ws.stack_spectrum)
        g = _irdft2(spec, self.op.shape)
        if self.lam > 0:
            spec = np.multiply(self._penalty, ev.x_hat, out=ws.spectrum)
            g += _irdft2(spec, self.op.shape, out=ws.image)
        return g

    def scaled_residual(self, x) -> np.ndarray:
        """t = ([Ax] - b) / sqrt([Ax] + sigma^2), per frame."""
        ax = self.op.apply(self._check_x(x, feasible=False))
        return _scaled_terms(ax, self.data, self.sigma**2, self.loss.beta)[1]

    def value(self, x) -> float:
        return self.evaluate(x).value

    def gradient(self, x) -> np.ndarray:
        """A^T z + lam L^T L x."""
        return self.gradient_at(self.evaluate(x))

    def hessian_weights(self, x) -> Evaluation:
        return self.evaluate(x)


@dataclass(frozen=True)
class ConvexityReport:
    """Computed Hessian-diagonal signs for one loss over sample triples."""

    kind: str
    d_values: np.ndarray
    min_value: float

    @property
    def min_sign(self) -> int:
        return int(np.sign(self.min_value))


def convexity_diagnostic(loss: LossFunction, samples) -> ConvexityReport:
    """Evaluate the general-loss Hessian diagonal over (ax, b, sigma) triples.

    A negative entry means the data term can lose positive
    semidefiniteness at some iterate.  Only the Talwar loss stays
    nonnegative for every sample; Huber, for instance, goes negative once
    [Ax] greatly exceeds b + sigma^2.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("samples must be (ax, b, sigma) triples")
    if np.any(arr[:, 0] + arr[:, 2] ** 2 <= 0):
        raise ValueError("samples require ax + sigma^2 > 0")
    _, d = chain_rule_weights(loss, arr[:, 0], arr[:, 1], arr[:, 2])
    return ConvexityReport(kind=loss.kind, d_values=d, min_value=float(d.min()))
