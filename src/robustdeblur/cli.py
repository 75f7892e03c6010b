"""Command-line front end.

Subcommands: ``generate`` (write a synthetic instance directory),
``solve`` (run the projected Newton solver and dump traces), ``gcv``
(select the regularization weight automatically), ``scan`` (relative
error over a lambda grid, per loss and corruption level).  Comparing
the preconditioner with plain CG takes two ``solve`` runs, with
``use_precond`` 0 and 1: each writes its per-step and total PCG
iterations and transform counts.

Configuration comes from a plain ``key=value`` text file (``--config``);
each flag overrides the key of its name (:data:`FLAGS`), and a command
accepts only the flags it reads.  Config lines and flags are read through
``gridfft._field`` with the key's rule (:data:`CONFIG_KEYS`), that of the
library argument it sets, as manifests and ``.hdr`` sidecars are.  Every
output is a plain file: CSV tables with a versioned ``# schema=...``
header line, raw float64 images with ``.hdr`` sidecars, and 16-bit PGM
viewing copies.  All commands are deterministic under their seeds and
exit 0 on success, 1 with a one-line reason on an error.  A bad value
prints ``<source>: invalid value for key '<key>': <reason>, got
<value>``, whose source is the config file, ``--<flag>``,
``manifest.txt`` or the ``.hdr`` file; a usage error (an unknown flag,
a missing value or subcommand) prints one line too.  ``solve`` and
``scan`` write their outputs and summary line whatever the
terminations, then exit 3 unless every solve ended ``converged`` or
``all_saturated``.  ``gcv`` does the same for the evaluation at the
selected lambda, which must also have a reliable trace estimate.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .gcv import GcvOptions, _flag_counts, minimize_gcv, write_gcv_trace
from .gridfft import (_checked, _field, _fraction, _nonneg_float, _nonneg_int,
                      _positive_float, _positive_int, _positive_or_inf,
                      _read_key_values, _write_table, write_pgm, write_raw)
from .objective import BETA_95, LossFunction
from .solver import SolverOptions, default_start, projected_newton
from .testbed import (
    CARBON_ASH_PSF_PARAMS,
    lambda_scan,
    load_instance,
    make_instance,
    relative_error,
    save_instance,
)

__all__ = ["ConfigError", "main", "parse_config", "run"]


# Terminations whose solution stands: solve, scan and gcv exit 3 on any other.
_SETTLED = ("converged", "all_saturated")


class ConfigError(ValueError):
    """Invalid or unknown configuration key."""


def _one_of(*names: str):
    """Parser: one of ``names``, in any case."""
    reason = "must be " + " or ".join("'%s'" % name for name in names)
    return _checked(lambda text: text.strip().lower(), names.__contains__,
                    reason)


def _list_of(item):
    """Parser: a nonempty comma-separated list of ``item`` values, as a
    tuple."""
    return _checked(
        lambda text: tuple(item(p) for p in text.split(",") if p.strip()),
        bool, "must list at least one value",
    )


_loss_kind = _one_of("talwar", "standard")

# key -> value parser; every config line must name one of these.  A key that
# sets a library argument has its rule; the option fields' keys are added below.
CONFIG_KEYS = {
    "kind": _one_of("satellite", "ash"),
    "size": _checked(int, lambda v: v >= 2, "must be at least 2"),
    "frames": _checked(
        int, lambda v: 1 <= v <= len(CARBON_ASH_PSF_PARAMS),
        "must be between 1 and %d" % len(CARBON_ASH_PSF_PARAMS),
    ),
    "sigma": _nonneg_float,
    "max_intensity": _positive_float,
    "seed": _nonneg_int,
    "noise_seed": _nonneg_int,
    "outlier_seed": _nonneg_int,
    "scene_seed": _nonneg_int,
    "outlier_fraction": _fraction,
    "outlier_ceiling": _nonneg_float,
    "instance": str,
    "out": str,
    "loss": _loss_kind,
    "beta": _positive_or_inf,
    "lambda": _nonneg_float,
    "lambda_grid": _list_of(_nonneg_float),
    "lambda_count": _positive_int,
    "outlier_fractions": _list_of(_fraction),
    "losses": _list_of(_loss_kind),
}

# config key -> (options dataclass, field), for every field with a rule, which
# reads the key; the key is the field's name, but for the one renamed below.
# A key left out of the config leaves the field at its dataclass default.
_KEY_OF_FIELD = {"use_preconditioner": "use_precond"}
_RULED = [(_KEY_OF_FIELD.get(f.name, f.name), cls, f)
          for cls in (SolverOptions, GcvOptions) for f in fields(cls)
          if "rule" in f.metadata]
OPTION_FIELDS = {key: (cls, f.name) for key, cls, f in _RULED}
CONFIG_KEYS.update((key, f.metadata["rule"]) for key, _, f in _RULED)

# make_instance's keyword arguments that a config key of the same name sets;
# "size" and "frames" set its shape and psf_params
_INSTANCE_KEYS = inspect.signature(make_instance).parameters.keys() & CONFIG_KEYS

# the keys that shape a synthesized instance, none of which has a default
# below; "seed" first, since it also sets the three stream seeds
_SHAPING_KEYS = ("size", "frames", "seed", *sorted(_INSTANCE_KEYS))

# Defaults of the keys that no library signature defaults; every other key
# left unset takes the default of the dataclass field or keyword it sets.
DEFAULTS = {
    "out": "out",
    "loss": "talwar",
    "beta": BETA_95,
    "lambda": 1e-3,
    "lambda_count": 12,
    "outlier_fractions": (0.0,),
    "losses": ("talwar",),
}


# flag -> help; each flag sets the config key of its name, parsed as a
# config line's value is
FLAGS = {
    "out": "output directory",
    "seed": "master seed for noise/outliers/scene",
    "size": "square grid side",
    "frames": "number of observation frames",
    "loss": "talwar or standard",
    "beta": "saturation threshold of the robust loss",
    "lambda": "regularization weight",
    "sigma": "read-out noise standard deviation",
}


def _read(texts: dict, source) -> dict:
    """Each ``key -> text`` of ``texts`` through its config key's parser,
    read by :func:`gridfft._field`; an unknown key or a bad value raises
    :class:`ConfigError` naming ``source`` (a config file or a flag)."""
    for key in texts:
        if key not in CONFIG_KEYS:
            raise ConfigError("%s: unknown config key '%s'" % (source, key))
    try:
        return {key: _field(texts, key, source, CONFIG_KEYS[key])
                for key in texts}
    except ValueError as err:
        raise ConfigError(str(err)) from None


def parse_config(path) -> dict:
    """Read a key=value file; a malformed line, an unknown key or a bad
    value raises :class:`ConfigError` naming the file.  A key set twice
    takes its last value."""
    try:
        pairs = _read_key_values(path)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return _read(dict(pairs), path)


def _resolve(args) -> dict:
    """Merge defaults, config file, and command-line overrides."""
    config = dict(DEFAULTS)
    file_keys = set()
    if args.config is not None:
        file_config = parse_config(args.config)
        file_keys = set(file_config)
        config.update(file_config)
    for key in FLAGS:
        text = getattr(args, key, None)  # None: unset, or not the command's
        if text is not None:
            config.update(_read({key: text}, "--" + key))
    if "seed" in config:
        # one master seed fans out to the three streams unless a stream
        # was pinned in the config file
        base = config["seed"]
        for offset, key in ((0, "noise_seed"), (1, "outlier_seed"),
                            (2, "scene_seed")):
            if key not in file_keys:
                config[key] = base + offset
    return config


def _make_loss(kind: str, beta: float) -> LossFunction:
    if kind == "standard":
        return LossFunction("talwar", beta=np.inf)
    return LossFunction("talwar", beta=beta)


def _options(cls, config, **extra):
    """``cls`` from its OPTION_FIELDS keys set in ``config``, then ``extra``."""
    kwargs = {name: config[key] for key, (owner, name) in OPTION_FIELDS.items()
              if owner is cls and key in config}
    kwargs.update(extra)
    return cls(**kwargs)


def _build_instance(config):
    kwargs = {key: config[key] for key in _INSTANCE_KEYS if key in config}
    if "size" in config:
        kwargs["shape"] = (config["size"], config["size"])
    if "frames" in config:
        kwargs["psf_params"] = CARBON_ASH_PSF_PARAMS[: config["frames"]]
    return make_instance(**kwargs)


def _obtain_instance(config):
    """The stored instance of key 'instance', else a synthesized one.  A
    stored instance fixes what the keys that shape a synthesized one set,
    so setting any of them beside 'instance' is an error."""
    if "instance" not in config:
        return _build_instance(config)
    for key in _SHAPING_KEYS:
        if key in config:
            raise ConfigError(
                "key '%s': cannot shape a stored instance; drop the key, "
                "or drop the 'instance' key to synthesize" % key
            )
    if config["outlier_fractions"] != (0.0,):
        raise ConfigError(
            "key 'outlier_fractions': cannot vary corruption of a "
            "stored instance; drop the 'instance' key to synthesize"
        )
    directory = Path(config["instance"])
    if not directory.is_dir():
        raise ConfigError(
            "key 'instance': directory %s does not exist" % directory
        )
    return load_instance(directory)


def _outdir(config) -> Path:
    """The output directory, created if missing."""
    outdir = Path(config["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_solution(outdir: Path, x: np.ndarray) -> None:
    write_raw(outdir / "x.raw", x)
    write_pgm(outdir / "x.pgm", x)


def cmd_generate(config) -> int:
    if "instance" in config:
        raise ConfigError(
            "key 'instance': generate synthesizes an instance and reads "
            "none; drop the key"
        )
    instance = _build_instance(config)
    outdir = Path(config["out"])
    save_instance(outdir, instance)
    print(
        "wrote %s: %s %dx%d, %d frame(s), sigma=%g, %d corrupted cells"
        % (
            outdir,
            instance.kind,
            instance.shape[0],
            instance.shape[1],
            instance.n_frames,
            instance.sigma,
            int(instance.outlier_mask.sum()),
        )
    )
    return 0


def cmd_solve(config) -> int:
    instance = _obtain_instance(config)
    loss = _make_loss(config["loss"], config["beta"])
    obj = instance.objective(loss, config["lambda"])
    opts = _options(SolverOptions, config)
    x, report = projected_newton(obj, default_start(instance.observed), opts)

    rows = []
    for k in range(len(report.objective_trace)):
        ffts = 0 if k == 0 else report.step_transforms[k - 1]
        pcg = 0 if k == 0 else report.pcg_iterations[k - 1]
        rows.append(
            (
                k,
                "%.12e" % report.objective_trace[k],
                "%.12e" % report.pg_norms[k],
                pcg,
                ffts,
            )
        )
    outdir = _outdir(config)
    _write_table(
        outdir / "solve_trace.csv",
        "solve-trace v1",
        "iter,objective,proj_grad_norm,pcg_iters,ffts",
        rows,
    )
    err = relative_error(x, instance.x_true)
    _write_table(
        outdir / "solve_summary.csv",
        "solve-summary v1",
        "iterations,termination,objective,relative_error,"
        "total_pcg,fft2,ifft2,mults,adds",
        [
            (
                report.iterations,
                report.termination,
                "%.12e" % report.objective_trace[-1],
                "%.6e" % err,
                report.total_pcg_iterations,
                report.counts.fft2,
                report.counts.ifft2,
                report.counts.mults,
                report.counts.adds,
            )
        ],
    )
    _write_solution(outdir, x)
    print(
        "solved: %d Newton steps (%s), relative error %.4f"
        % (report.iterations, report.termination, err)
    )
    # outputs are written either way; a script must not take them as solved
    return 0 if report.termination in _SETTLED else 3


def cmd_gcv(config) -> int:
    instance = _obtain_instance(config)
    obj = instance.objective(_make_loss(config["loss"], config["beta"]), 0.0)
    opts = _options(GcvOptions, config,
                    solver=_options(SolverOptions, config))
    lam_star, evaluations = minimize_gcv(
        obj, opts, x0=default_start(instance.observed)
    )
    outdir = _outdir(config)
    write_gcv_trace(outdir / "gcv_trace.csv", evaluations)

    # minimize_gcv always evaluates lambda*
    at_star = next(e for e in evaluations if e.lam == lam_star)
    _write_solution(outdir, at_star.x)
    err = "%.6e" % relative_error(at_star.x, instance.x_true)
    _write_table(
        outdir / "gcv_summary.csv",
        "gcv-summary v1",
        "lambda_star,evaluations,relative_error",
        [("%.12e" % lam_star, len(evaluations), err)],
    )
    unreliable, nonconverged = _flag_counts(evaluations)
    print(
        "lambda_star=%.6e after %d evaluations (%d unreliable, "
        "%d not converged), relative error %s"
        % (lam_star, len(evaluations), unreliable, nonconverged, err)
    )
    settled = at_star.reliable and at_star.newton_report.termination in _SETTLED
    return 0 if settled else 3


def _scan_grid(config):
    if "lambda_grid" in config:
        grid = config["lambda_grid"]
        if list(grid) != sorted(grid):
            raise ConfigError("key 'lambda_grid': values must be ascending")
        return tuple(grid)
    lo = config.get("lambda_lo", GcvOptions.lambda_lo)
    hi = config.get("lambda_hi", GcvOptions.lambda_hi)
    if not lo > 0:
        raise ConfigError(
            "key 'lambda_lo': must be positive to build a log grid "
            "(or pass lambda_grid explicitly)"
        )
    if not hi > lo:
        raise ConfigError("key 'lambda_hi': must exceed lambda_lo")
    return tuple(
        np.logspace(np.log10(lo), np.log10(hi), config["lambda_count"])
    )


def cmd_scan(config) -> int:
    grid = _scan_grid(config)
    opts = _options(SolverOptions, config)
    rows, settled = [], True
    if "instance" in config:
        stored = _obtain_instance(config)
        instances = [(stored, stored.outlier_fraction)]
    else:
        instances = [
            (_build_instance({**config, "outlier_fraction": f}), f)
            for f in config["outlier_fractions"]
        ]
    for kind in config["losses"]:
        loss = _make_loss(kind, config["beta"])
        for instance, fraction in instances:
            for point in lambda_scan(instance, loss, grid, opts):
                report = point.newton_report
                settled &= report.termination in _SETTLED
                err = relative_error(point.x, instance.x_true)
                rows.append((kind, "%g" % fraction, "%.12e" % point.lam,
                             "%.6e" % err, report.iterations))
    outdir = _outdir(config)
    _write_table(
        outdir / "scan.csv",
        "lambda-scan v1",
        "loss,outlier_fraction,lambda,relative_error,newton_iters",
        rows,
    )
    print("scan: %d rows -> %s" % (len(rows), outdir / "scan.csv"))
    return 0 if settled else 3


COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "gcv": cmd_gcv,
    "scan": cmd_scan,
}

# the flags that a command does not read, and so does not accept
_UNREAD_FLAGS = {"generate": ("loss", "beta", "lambda"), "gcv": ("lambda",),
                 "scan": ("loss", "lambda")}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ConfigError` instead of printing the
    usage and exiting 2, so they end like every other error."""

    def error(self, message):
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        # a token with one '-' is an option only when it names one, so that
        # a flag takes '-1e-3' or '-inf' as its value, as it takes '-0.5'
        if arg_string.startswith("--") or arg_string in self._option_string_actions:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustdeblur",
        description=(
            "Robust multi-frame deblurring under mixed Poisson-Gaussian "
            "noise: generate synthetic instances, solve, pick lambda by "
            "GCV, and scan error curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(func=func)
        cmd.add_argument("--config", help="key=value configuration file")
        for key, text in FLAGS.items():
            if key not in _UNREAD_FLAGS.get(name, ()):
                cmd.add_argument("--" + key, help=text)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _resolve(args)
    return args.func(config)


def main(argv=None) -> int:
    try:
        return run(argv)
    except Exception as err:  # one-line reason, nonzero exit
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
