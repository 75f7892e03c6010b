import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustdeblur

from robustdeblur.cli import (
    _INSTANCE_KEYS, CONFIG_KEYS, FLAGS, OPTION_FIELDS, ConfigError, _resolve,
    build_parser, main, parse_config,
)
from robustdeblur.gridfft import read_raw, write_raw
from robustdeblur.objective import LossFunction
from robustdeblur.testbed import make_instance, synthetic_scene


def write_config(tmp_path, name="run.cfg", **keys):
    path = tmp_path / name
    path.write_text(
        "".join("%s=%s\n" % (k, v) for k, v in keys.items())
    )
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def directory_bytes(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


# -- config parsing ------------------------------------------------------


def test_unknown_key_is_named(tmp_path):
    cfg = write_config(tmp_path, bogus="1")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(cfg)


def test_bad_value_names_the_key(tmp_path):
    cfg = write_config(tmp_path, sigma="-3")
    with pytest.raises(ConfigError, match="'sigma'"):
        parse_config(cfg)
    cfg = write_config(tmp_path, loss="cauchy")
    with pytest.raises(ConfigError, match="'loss'"):
        parse_config(cfg)
    cfg = write_config(tmp_path, outlier_fraction="1.5")
    with pytest.raises(ConfigError, match="'outlier_fraction'"):
        parse_config(cfg)


def test_comments_blanks_and_lists_parse(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n\nlambda_grid=1e-4, 1e-3,1e-2\nuse_precond=true\n"
    )
    config = parse_config(path)
    assert config["lambda_grid"] == (1e-4, 1e-3, 1e-2)
    assert config["use_precond"] is True


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sigma 5\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


def test_cli_error_exit_is_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus="1")
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err
    assert err.count("\n") == 1  # one-line reason


# key -> (literal, parsed value): a literal each key accepts
VALID = {
    "kind": (" Ash", "ash"),
    "size": ("2", 2),
    "frames": ("3", 3),
    "sigma": ("0", 0.0),
    "max_intensity": ("1e3", 1000.0),
    "seed": ("0", 0),
    "noise_seed": ("7", 7),
    "outlier_seed": ("8", 8),
    "scene_seed": ("9", 9),
    "outlier_fraction": ("1", 1.0),
    "outlier_ceiling": ("300", 300.0),
    "instance": ("inst dir", "inst dir"),
    "out": ("results", "results"),
    "loss": ("TALWAR", "talwar"),
    "beta": ("2.5", 2.5),
    "lambda": ("1e-3", 1e-3),
    "newton_tol": ("1e-6", 1e-6),
    "newton_maxit": ("1", 1),
    "pcg_tol": ("0.5", 0.5),
    "pcg_maxit": ("10", 10),
    "use_precond": ("Yes", True),
    "lambda_lo": ("0", 0.0),
    "lambda_hi": ("0.5", 0.5),
    "x_tol": ("1e-4", 1e-4),
    "probe_seed": ("3", 3),
    "inner_cg_tol": ("1e-2", 1e-2),
    "inner_cg_maxit": ("150", 150),
    "lambda_grid": ("1e-4, 1e-3,", (1e-4, 1e-3)),
    "lambda_count": ("12", 12),
    "outlier_fractions": ("0,0.1", (0.0, 0.1)),
    "losses": ("talwar, Standard", ("talwar", "standard")),
}

NOT_INT = "invalid literal for int() with base 10: "
BOOLEAN = "expected a boolean (0/1/true/false)"

# key -> (literal, reason): a literal each key rejects and the reason its
# error gives, with the rejected value; 'instance' and 'out' take any text
INVALID = {
    "kind": ("moon", "must be 'satellite' or 'ash', got moon"),
    "size": ("1", "must be at least 2, got 1"),
    "frames": ("4", "must be between 1 and 3, got 4"),
    "sigma": ("-0.5", "must be nonnegative, got -0.5"),
    "max_intensity": ("0", "must be positive, got 0.0"),
    "seed": ("-1", "must be nonnegative, got -1"),
    "noise_seed": ("1.5", NOT_INT + "'1.5'"),
    "outlier_seed": ("-2", "must be nonnegative, got -2"),
    "scene_seed": ("x", NOT_INT + "'x'"),
    "outlier_fraction": ("1.5", "must lie in [0, 1], got 1.5"),
    "outlier_ceiling": ("-1", "must be nonnegative, got -1.0"),
    "loss": ("cauchy", "must be 'talwar' or 'standard', got cauchy"),
    "beta": ("0", "must be positive, got 0.0"),
    "lambda": ("-1e-3", "must be nonnegative, got -0.001"),
    "newton_tol": ("0", "must be positive, got 0.0"),
    "newton_maxit": ("0", "must be at least 1, got 0"),
    "pcg_tol": ("nan", "must be finite, got nan"),
    "pcg_maxit": ("2.5", NOT_INT + "'2.5'"),
    "use_precond": ("maybe", BOOLEAN + ", got maybe"),
    "lambda_lo": ("-1", "must be nonnegative, got -1.0"),
    "lambda_hi": ("nan", "must be finite, got nan"),
    "x_tol": ("-1e-4", "must be positive, got -0.0001"),
    "probe_seed": ("-3", "must be nonnegative, got -3"),
    "inner_cg_tol": ("0", "must be positive, got 0.0"),
    "inner_cg_maxit": ("0", "must be at least 1, got 0"),
    "lambda_grid": ("1e-3,-1", "must be nonnegative, got -1.0"),
    "lambda_count": ("0", "must be at least 1, got 0"),
    "outlier_fractions": (" , ", "must list at least one value, got ()"),
    "losses": ("talwar,huber", "must be 'talwar' or 'standard', got huber"),
}

# the keys that a config line and an instance manifest both set, each read
# by one converter
SHARED_KEYS = ("sigma", "noise_seed", "outlier_seed", "outlier_fraction")


def test_every_key_parses_as_pinned(tmp_path):
    assert set(VALID) == set(CONFIG_KEYS)
    assert set(INVALID) == set(CONFIG_KEYS) - {"instance", "out"}
    for key, (literal, value) in VALID.items():
        config = parse_config(write_config(tmp_path, **{key: literal}))
        assert config == {key: value}, key
        assert type(config[key]) is type(value), key


def bad_value_error(tmp_path, capsys, key, via):
    """The source that the bad literal ``INVALID[key]`` is set in, by a
    config line, a flag or a stored instance's manifest, and the stderr of
    the ``solve`` it stops."""
    literal = INVALID[key][0]
    argv = ["solve", "--out", str(tmp_path / "s")]
    if via == "config":
        source = write_config(tmp_path, **{key: literal})
        argv += ["--config", source]
        with pytest.raises(ConfigError) as err:
            parse_config(source)
    elif via == "flag":
        source = "--" + key
        argv.append("%s=%s" % (source, literal))
    else:
        inst = tmp_path / "inst"
        assert main(["generate", "--size", "8", "--out", str(inst)]) == 0
        source = inst / "manifest.txt"
        source.write_text(re.sub("^%s=.*" % key, "%s=%s" % (key, literal),
                                 source.read_text(), count=1, flags=re.M))
        argv += ["--config", write_config(tmp_path, instance=str(inst))]
    capsys.readouterr()
    assert main(argv) == 1
    stderr = capsys.readouterr().err
    if via == "config":
        assert stderr == "error: %s\n" % err.value  # parse_config's own
    assert not (tmp_path / "s").exists()
    return str(source), stderr


@pytest.mark.parametrize("key, via", [(key, "config") for key in INVALID]
                         + [(key, "flag") for key in FLAGS if key in INVALID]
                         + [(key, "manifest") for key in SHARED_KEYS])
def test_a_bad_value_fails_with_one_line_naming_source_key_and_reason(
        tmp_path, capsys, key, via):
    # one format for every text value: the file or flag it came from, the
    # key, and the converter's reason with the rejected value
    source, stderr = bad_value_error(tmp_path, capsys, key, via)
    assert stderr == "error: %s: invalid value for key '%s': %s\n" % (
        source, key, INVALID[key][1])


@pytest.mark.parametrize("key", SHARED_KEYS)
def test_a_shared_key_fails_alike_in_a_config_line_and_a_manifest(
        tmp_path, capsys, key):
    lines = []
    for via in ("config", "manifest"):
        (tmp_path / via).mkdir()
        source, stderr = bad_value_error(tmp_path / via, capsys, key, via)
        lines.append(stderr.replace(source, "<source>", 1))
    assert lines[0].startswith("error: <source>: ") and lines[0] == lines[1]


def _tiny(**kwargs):
    return make_instance("satellite", (8, 8), **kwargs)


# key -> (argument, call that passes the value v as that library argument),
# for each key that sets a library argument but no options field
ARGUMENT_KEYS = {
    "sigma": ("sigma", lambda v: _tiny(sigma=v)),
    "max_intensity": ("max_intensity", lambda v: _tiny(max_intensity=v)),
    "seed": ("seed", lambda v: synthetic_scene("ash", (8, 8), seed=v)),
    "noise_seed": ("noise_seed", lambda v: _tiny(noise_seed=v)),
    "outlier_seed": ("outlier_seed", lambda v: _tiny(outlier_seed=v)),
    "scene_seed": ("scene_seed", lambda v: _tiny(scene_seed=v)),
    "outlier_fraction": ("outlier_fraction", lambda v: _tiny(outlier_fraction=v)),
    "outlier_ceiling": ("outlier_ceiling", lambda v: _tiny(outlier_ceiling=v)),
    "lambda": ("lam", lambda v: _tiny().objective(lam=v)),
    "beta": ("beta", lambda v: LossFunction(beta=v)),
}


def test_a_key_reads_by_the_rule_of_the_argument_it_sets(tmp_path):
    # an options field's key is read by the very rule the dataclass
    # applies; any other key that sets a library argument rejects a bad
    # literal with the reason that argument gives it
    for key, (cls, name) in OPTION_FIELDS.items():
        field = {f.name: f for f in dataclasses.fields(cls)}[name]
        assert CONFIG_KEYS[key] is field.metadata["rule"], key
    for key, (argument, call) in ARGUMENT_KEYS.items():
        for literal in (INVALID[key][0], "x", "nan"):
            with pytest.raises(ConfigError) as from_config:
                parse_config(write_config(tmp_path, **{key: literal}))
            reason = str(from_config.value).split("key '%s': " % key, 1)[1]
            with pytest.raises(ValueError) as from_argument:
                call(literal)
            assert str(from_argument.value) == argument + " " + reason, key


# the keys whose values are floats, or lists of floats
FLOAT_KEYS = {
    "sigma", "max_intensity", "outlier_fraction", "outlier_ceiling", "beta",
    "lambda", "newton_tol", "pcg_tol", "lambda_lo", "lambda_hi", "x_tol",
    "inner_cg_tol", "lambda_grid", "outlier_fractions",
}


def test_float_keys_are_finite_but_beta(tmp_path):
    # inf would reach the library, which rejects it only once a run is
    # under way; beta = inf is weighted least squares and stays valid
    assert {key for key, (_, value) in VALID.items()
            if isinstance(value, float)
            or isinstance(value, tuple) and isinstance(value[0], float)
            } == FLOAT_KEYS
    for key in FLOAT_KEYS - {"beta"}:
        lists = isinstance(VALID[key][1], tuple)
        for literal in ("inf", "-inf") + (("0.1,inf",) if lists else ()):
            path = write_config(tmp_path, **{key: literal})
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert str(err.value) == (
                "%s: invalid value for key '%s': must be finite, got %s"
                % (path, key, literal.rpartition(",")[2])
            )
    config = parse_config(write_config(tmp_path, beta="inf"))
    assert config == {"beta": float("inf")}


@pytest.mark.parametrize("argv, names", [
    (["solve", "--size", "abc"], "'size'"),
    (["solve", "--size", "1"], "'size'"),
    (["solve", "--loss", "cauchy"], "'loss'"),
    (["solve", "--seed", "-1"], "'seed'"),
    (["solve", "--frames", "9"], "'frames'"),
    (["solve", "--lambda=inf"], "'lambda'"),
    (["solve", "--sigma=inf"], "'sigma'"),
    (["solve", "--bogus", "3"], "--bogus"),
    (["solve", "--lambda"], "--lambda"),
    (["solve", "--lambda", "--sigma", "1"], "--lambda"),
    (["solve", "--size", "8", "-x"], "-x"),
    # each command accepts only the flags it reads
    (["generate", "--lambda", "7"], "--lambda 7"),
    (["gcv", "--lambda", "0.5"], "--lambda 0.5"),
    (["scan", "--loss", "standard"], "--loss standard"),
    ([], "command"),
    (["bench-precond"], "bench-precond"),
])
def test_bad_flag_or_usage_exits_one_with_one_line(argv, names, capsys,
                                                   tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)] if argv else argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert err.count("\n") == 1
    assert not out.exists()


# command -> the flags it reads, which are all it accepts
COMMAND_FLAGS = {
    "generate": {"out", "seed", "size", "frames", "sigma"},
    "solve": set(FLAGS),
    "gcv": set(FLAGS) - {"lambda"},
    "scan": set(FLAGS) - {"loss", "lambda"},
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_accepts_only_the_flags_it_reads(command):
    parser = build_parser()
    for key in FLAGS:
        argv = [command, "--" + key, "1"]
        if key in COMMAND_FLAGS[command]:
            assert getattr(parser.parse_args(argv), key) == "1"
        else:
            with pytest.raises(ConfigError, match="unrecognized arguments"):
                parser.parse_args(argv)


@pytest.mark.parametrize("argv, key, reason", [
    (["solve", "--lambda", "-1e-3"], "lambda", "must be nonnegative, got -0.001"),
    (["solve", "--sigma", "-inf"], "sigma", "must be finite, got -inf"),
    (["solve", "--lam", "-1e-3"], "lambda", "must be nonnegative, got -0.001"),
    (["generate", "--seed", "-2"], "seed", "must be nonnegative, got -2"),
])
def test_a_flag_value_starting_with_a_dash_reaches_the_rule(
        argv, key, reason, capsys, tmp_path):
    # argparse alone reads '-1e-3' and '-inf' as options, not as values
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --%s: invalid value for key '%s': %s\n" % (key, key, reason))
    assert not out.exists()


@pytest.mark.parametrize("command, line, named", [
    ("solve", "newton_tol=inf", "'newton_tol'"),
    ("gcv", "lambda_hi=inf", "'lambda_hi'"),
    ("scan", "lambda_grid=1e-3,inf", "'lambda_grid'"),
    # a key that was removed is an unknown key
    ("solve", "linesearch_max_halvings=5", "'linesearch_max_halvings'"),
])
def test_bad_config_line_exits_one_with_one_line_naming_the_key(
        tmp_path, capsys, command, line, named):
    cfg = write_config(tmp_path, **dict([line.split("=", 1)]))
    out = tmp_path / "out"
    assert main([command, "--size", "8", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_flags_and_config_lines_resolve_alike(tmp_path):
    values = {"out": "o", "seed": "4", "size": "16", "frames": "2",
              "loss": "Standard", "beta": "3", "lambda": "1e-2", "sigma": "0"}
    assert set(values) == set(FLAGS)
    flags = [token for key, value in values.items()
             for token in ("--" + key, value)]
    parser = build_parser()
    from_flags = _resolve(parser.parse_args(["solve", *flags]))
    from_file = _resolve(parser.parse_args(
        ["solve", "--config", write_config(tmp_path, **values)]
    ))
    assert from_flags == from_file
    assert from_flags["loss"] == "standard" and from_flags["scene_seed"] == 6


def test_missing_instance_directory_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, instance=str(tmp_path / "nope"))
    assert main(["solve", "--config", cfg]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_manifest_fault_exits_one_with_one_line_naming_it(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("format=instance-dir v1\n")
    cfg = write_config(tmp_path, instance=str(tmp_path))
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: %s: missing key 'frames'\n" % manifest


# (file, pattern, replacement, key): a fault made by one regex edit of a
# file of a generated 3-frame 8x8 instance, and the key its error names; or
# (raw file, None, None, None): the raw replaced by a 4x4 one, whose error
# names both shapes
INSTANCE_FAULTS = [
    ("manifest.txt", r"^frames=.*\n", "", "frames"),
    ("manifest.txt", r"^frames=.*", "frames=0", "frames"),
    ("manifest.txt", r"^psf1_params=.*\n", "", "psf1_params"),
    ("manifest.txt", r"^psf0_params=.*", "psf0_params=-1,2,0", "psf0_params"),
    ("manifest.txt", r"^psf0_center=.*", "psf0_center=99,0", "psf0_center"),
    ("manifest.txt", r"^psf2_center=.*", "psf2_center=0,-1", "psf2_center"),
    ("manifest.txt", r"^noise_seed=.*", "noise_seed=-5", "noise_seed"),
    ("manifest.txt", r"^sigma=.*", "sigma=-5", "sigma"),
    ("manifest.txt", r"^outlier_fraction=.*", "outlier_fraction=7",
     "outlier_fraction"),
    ("manifest.txt", r"^outlier_ceiling=.*", "outlier_ceiling=-1",
     "outlier_ceiling"),
    ("manifest.txt", r"^height=.*", "height=9", "height"),
    ("manifest.txt", r"^width=.*\n", "", "width"),
    ("x_true.raw.hdr", r"(?s).*", "", "height"),  # a blank header
    ("psf_2.raw", None, None, None),
    ("clean_0.raw", None, None, None),
    ("observed_1.raw", None, None, None),
    ("outlier_mask_2.raw", None, None, None),
]


@pytest.mark.parametrize(
    "name, pattern, replacement, key", INSTANCE_FAULTS,
    ids=[replacement or ("%s without %s" % (name, key) if key else "4x4 " + name)
         for name, _, replacement, key in INSTANCE_FAULTS])
def test_stored_instance_fault_exits_one_with_one_line_naming_file_and_key(
        tmp_path, capsys, name, pattern, replacement, key):
    inst = tmp_path / "inst"
    assert main(["generate", "--size", "8", "--frames", "3",
                 "--out", str(inst)]) == 0
    path = inst / name
    if pattern is None:
        write_raw(path, np.ones((4, 4)))
    else:
        text = path.read_text()
        path.write_text(re.sub(pattern, replacement, text, count=1, flags=re.M))
        assert path.read_text() != text
    capsys.readouterr()
    cfg = write_config(tmp_path, instance=str(inst))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    named = "shape (4, 4) != grid (8, 8)" if key is None else "'%s'" % key
    assert err.startswith("error: %s: " % path) and named in err
    assert err.count("\n") == 1


# a key that shapes a synthesized instance, set beside a stored one
SHAPING_SETTINGS = ["--size=64", "--sigma=50", "--seed=9", "--frames=2"] + [
    "%s=%s" % (key, VALID[key][0])
    for key in sorted(_INSTANCE_KEYS | {"size", "frames", "seed"})
]


@pytest.mark.parametrize("setting", SHAPING_SETTINGS)
def test_stored_instance_rejects_a_key_that_shapes_one(tmp_path, capsys,
                                                       setting):
    # a setting is a flag (--key=value) or a config line (key=value)
    inst = tmp_path / "inst"
    assert main(["generate", "--size", "8", "--out", str(inst)]) == 0
    capsys.readouterr()
    key, value = setting.lstrip("-").split("=", 1)
    flag = setting.startswith("--")
    cfg = write_config(tmp_path, instance=str(inst),
                       **({} if flag else {key: value}))
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "s")]
    if flag:
        argv.append(setting)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key '%s': " % key)
    assert err.count("\n") == 1
    assert not (tmp_path / "s").exists()


# -- generate ------------------------------------------------------------


def test_generate_rejects_a_stored_instance(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert main(["generate", "--size", "8", "--out", str(inst)]) == 0
    cfg = write_config(tmp_path, instance=str(inst))
    capsys.readouterr()
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'instance': ") and err.count("\n") == 1
    assert not (tmp_path / "g").exists()


def test_generate_is_bitwise_repeatable(tmp_path):
    cfg = write_config(tmp_path, size=16, outlier_fraction=0.05)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
    assert directory_bytes(a) == directory_bytes(b)


def test_generate_records_fraction_and_exact_mask_count(tmp_path):
    out = tmp_path / "inst"
    cfg = write_config(tmp_path, size=32, outlier_fraction=0.1, frames=2)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["outlier_fraction"]) == 0.1
    count = sum(
        int(read_raw(out / ("outlier_mask_%d.raw" % j)).sum())
        for j in range(2)
    )
    assert count == int(0.1 * 2 * 32 * 32)


def test_generate_sigma_defaults_to_five(tmp_path):
    out = tmp_path / "inst"
    cfg = write_config(tmp_path, size=16)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert float(manifest["sigma"]) == 5.0


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "inst"
    cfg = write_config(tmp_path, size=32)
    assert main(
        ["generate", "--config", cfg, "--out", str(out), "--size", "16"]
    ) == 0
    manifest = dict(
        line.split("=", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    assert manifest["height"] == "16"


def test_master_seed_changes_noise(tmp_path):
    cfg = write_config(tmp_path, size=16)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a),
                 "--seed", "7"]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b),
                 "--seed", "8"]) == 0
    obs_a = read_raw(a / "observed_0.raw")
    obs_b = read_raw(b / "observed_0.raw")
    assert not np.array_equal(obs_a, obs_b)


# -- solve ---------------------------------------------------------------


def solve_into(tmp_path, name, **keys):
    out = tmp_path / name
    cfg = write_config(tmp_path, name + ".cfg", **keys)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_solve_writes_monotone_trace_and_solution(tmp_path):
    out = solve_into(tmp_path, "run", size=16, **{"lambda": "1e-3"})
    schema, header, rows = read_csv(out / "solve_trace.csv")
    assert schema == "# schema=solve-trace v1"
    assert header == ["iter", "objective", "proj_grad_norm",
                      "pcg_iters", "ffts"]
    objective = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(objective, objective[1:]))
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    # accepted steps cost transforms
    assert all(int(r[4]) > 0 for r in rows[1:])

    schema, header, summary = read_csv(out / "solve_summary.csv")
    assert schema == "# schema=solve-summary v1"
    assert int(summary[0][0]) == len(rows) - 1
    assert summary[0][1] == "converged"

    x = read_raw(out / "x.raw")
    assert x.shape == (16, 16) and x.min() >= 0
    assert (out / "x.pgm").exists()


def test_default_solve_converges_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--size", "32", "--out", str(out)]) == 0
    assert "(converged)" in capsys.readouterr().out


def test_solve_trace_counts_every_transform_but_the_start(tmp_path):
    # The start of a 1-frame solve at lambda > 0 (one evaluation and one
    # gradient; its pg_ref is free at the default start) costs 2k+3 = 5
    # transforms, which only the summary's totals hold.
    out = tmp_path / "run"
    assert main(["solve", "--size", "32", "--out", str(out)]) == 0
    _, _, steps = read_csv(out / "solve_trace.csv")
    _, header, summary = read_csv(out / "solve_summary.csv")
    total = sum(int(summary[0][header.index(name)]) for name in ("fft2", "ifft2"))
    assert sum(int(row[4]) for row in steps) == total - 5


def test_beta_inf_solves_weighted_least_squares(tmp_path, capsys):
    assert main(["solve", "--size", "16", "--beta", "inf",
                 "--out", str(tmp_path / "wls")]) == 0
    assert "(converged)" in capsys.readouterr().out


def test_unconverged_solve_writes_outputs_and_exits_three(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--size", "32", "--lambda", "0",
                 "--out", str(out)]) == 3
    assert "(max_iterations)" in capsys.readouterr().out
    assert read_csv(out / "solve_summary.csv")[2][0][1] == "max_iterations"
    assert (out / "x.raw").exists()


def test_solve_loaded_instance_matches_inline(tmp_path):
    inst_dir = tmp_path / "inst"
    cfg = write_config(tmp_path, "gen.cfg", size=16, outlier_fraction=0.05)
    assert main(["generate", "--config", cfg, "--out", str(inst_dir)]) == 0

    inline = solve_into(tmp_path, "inline", size=16, outlier_fraction=0.05,
                        **{"lambda": "1e-3"})
    loaded = solve_into(tmp_path, "loaded", instance=str(inst_dir),
                        **{"lambda": "1e-3"})
    assert np.array_equal(
        read_raw(inline / "x.raw"), read_raw(loaded / "x.raw")
    )


def test_robust_beats_standard_on_corrupted_instance(tmp_path):
    common = dict(size=32, outlier_fraction=0.1, **{"lambda": "2e-3"})
    robust = solve_into(tmp_path, "robust", loss="talwar", **common)
    standard = solve_into(tmp_path, "standard", loss="standard", **common)
    err_robust = float(read_csv(robust / "solve_summary.csv")[2][0][3])
    err_standard = float(read_csv(standard / "solve_summary.csv")[2][0][3])
    assert err_robust < err_standard


# -- gcv -----------------------------------------------------------------


def test_gcv_repeats_and_honors_bracket(tmp_path):
    cfg = write_config(
        tmp_path,
        size=16,
        outlier_fraction=0.02,
        lambda_lo="1e-6",
        lambda_hi="1e-2",
        x_tol="1e-4",
        newton_maxit=30,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gcv", "--config", cfg, "--out", str(a)]) == 0
    assert main(["gcv", "--config", cfg, "--out", str(b)]) == 0

    schema, header, rows_a = read_csv(a / "gcv_trace.csv")
    assert schema == "# schema=gcv-trace v1"
    assert header == ["lambda", "gcv", "numerator", "trace_estimate"]
    _, _, summary_a = read_csv(a / "gcv_summary.csv")
    _, _, summary_b = read_csv(b / "gcv_summary.csv")
    assert summary_a == summary_b

    lam_star = float(summary_a[0][0])
    assert 1e-6 <= lam_star <= 1e-2
    assert (a / "x.raw").exists() and (a / "x.pgm").exists()


@pytest.mark.parametrize("keys", [{}, {"use_precond": 1}],
                         ids=["plain", "precond"])
def test_default_gcv_search_exits_zero(tmp_path, capsys, keys):
    # with the preconditioner on, the only path through a GCV fit's dhat
    # and the check precond_build makes of it
    out = tmp_path / "gcv"
    cfg = write_config(tmp_path, **keys)
    assert main(["gcv", "--size", "32", "--config", cfg, "--out", str(out)]) == 0
    assert "(0 unreliable, 0 not converged)" in capsys.readouterr().out
    assert (out / "x.raw").exists()


def test_gcv_final_line_counts_flagged_evaluations(tmp_path, capsys):
    # a one-iteration trace solve is never reliable, lambda*'s included, so
    # the search writes its outputs and exits 3
    cfg = write_config(
        tmp_path,
        size=16,
        lambda_lo="1e-6",
        lambda_hi="1e-2",
        x_tol="1e-3",
        inner_cg_maxit=1,
    )
    with pytest.warns(RuntimeWarning, match="GCV search used"):
        assert main(["gcv", "--config", cfg, "--out", str(tmp_path / "g")]) == 3
    last = capsys.readouterr().out.strip().splitlines()[-1]
    n = int(read_csv(tmp_path / "g" / "gcv_summary.csv")[2][0][1])
    assert f"after {n} evaluations ({n} unreliable, 0 not converged)" in last


# -- scan ----------------------------------------------------------------


def test_scan_grid_of_one_yields_one_row(tmp_path):
    out = tmp_path / "scan"
    cfg = write_config(tmp_path, size=16, lambda_grid="1e-3")
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    schema, header, rows = read_csv(out / "scan.csv")
    assert schema == "# schema=lambda-scan v1"
    assert header == ["loss", "outlier_fraction", "lambda",
                      "relative_error", "newton_iters"]
    assert len(rows) == 1
    assert rows[0][0] == "talwar" and float(rows[0][2]) == 1e-3


def test_scan_covers_loss_by_fraction_by_lambda(tmp_path):
    out = tmp_path / "scan"
    cfg = write_config(
        tmp_path,
        size=16,
        lambda_grid="1e-4,1e-3,1e-2",
        losses="talwar,standard",
        outlier_fractions="0,0.1",
    )
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "scan.csv")
    assert len(rows) == 3 * 2 * 2
    combos = {(r[0], r[1]) for r in rows}
    assert combos == {
        ("talwar", "0"), ("talwar", "0.1"),
        ("standard", "0"), ("standard", "0.1"),
    }


def test_unconverged_scan_writes_outputs_and_exits_three(tmp_path, capsys):
    # At lambda = 0 the 32x32 solve runs out of Newton steps, as in solve.
    out = tmp_path / "scan"
    cfg = write_config(tmp_path, size=32, lambda_grid="0")
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
    assert "scan: 1 rows" in capsys.readouterr().out
    _, _, rows = read_csv(out / "scan.csv")
    assert len(rows) == 1 and rows[0][4] == "40"


def test_scan_log_grid_requires_positive_lower_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, size=16)  # lambda_lo defaults to 0
    assert main(["scan", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "lambda_lo" in err
    assert err.count("\n") == 1


def test_scan_without_a_grid_builds_the_log_grid(tmp_path):
    out = tmp_path / "scan"
    cfg = write_config(tmp_path, size=16, lambda_lo="1e-4", lambda_hi="1e-2",
                       lambda_count=3)
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "scan.csv")
    assert [float(r[2]) for r in rows] == [1e-4, 1e-3, 1e-2]


def test_scan_of_a_stored_instance(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert main(["generate", "--size", "16", "--out", str(inst)]) == 0
    out = tmp_path / "scan"
    cfg = write_config(tmp_path, instance=str(inst), lambda_grid="1e-3")
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "scan.csv")
    assert len(rows) == 1 and rows[0][:3] == ["talwar", "0", "1.000000000000e-03"]
    # a stored instance has its own corruption, which a scan cannot vary
    cfg = write_config(tmp_path, instance=str(inst), lambda_grid="1e-3",
                       outlier_fractions="0,0.1")
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'outlier_fractions'" in err


@pytest.mark.parametrize("keys, named", [
    ({"lambda_grid": "1e-2,1e-3"}, "'lambda_grid'"),
    ({"lambda_lo": "1e-2", "lambda_hi": "1e-2"}, "'lambda_hi'"),
    ({"lambda_lo": "1e-2", "lambda_hi": "1e-3"}, "'lambda_hi'"),
])
def test_scan_rejects_a_grid_out_of_order(tmp_path, capsys, keys, named):
    cfg = write_config(tmp_path, size=16, **keys)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not (tmp_path / "s").exists()


# -- preconditioner comparison -------------------------------------------


def test_solve_with_and_without_preconditioner_reports_pcg_per_step(tmp_path):
    # the on/off comparison is two solves; each one's per-step PCG
    # iterations add up to its summary's total
    totals = {}
    for flag in (0, 1):
        out = solve_into(tmp_path, "precond%d" % flag, size=16,
                         outlier_fraction=0.05, use_precond=flag,
                         **{"lambda": "1e-3"})
        _, _, steps = read_csv(out / "solve_trace.csv")
        _, header, summary = read_csv(out / "solve_summary.csv")
        total = int(summary[0][header.index("total_pcg")])
        assert sum(int(r[3]) for r in steps) == total > 0
        totals[flag] = total
    assert totals[1] < totals[0]


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would also add about
    # a second to every CLI call.
    code = (
        "import sys, robustdeblur, robustdeblur.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(robustdeblur.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
