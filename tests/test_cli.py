import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustdeblur

from robustdeblur.cli import ConfigError, main, parse_config
from robustdeblur.gridfft import read_raw


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


def test_missing_instance_directory_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, instance=str(tmp_path / "nope"))
    assert main(["solve", "--config", cfg]) == 1
    assert "does not exist" in capsys.readouterr().err


# -- generate ------------------------------------------------------------


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


def test_scan_log_grid_requires_positive_lower_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, size=16)  # lambda_lo defaults to 0
    assert main(["scan", "--config", cfg]) == 1
    assert "lambda_lo" in capsys.readouterr().err


# -- bench-precond -------------------------------------------------------


def test_bench_emits_step_and_total_tables(tmp_path):
    out = tmp_path / "bench"
    cfg = write_config(tmp_path, size=16, outlier_fraction=0.05,
                       **{"lambda": "1e-3"})
    assert main(["bench-precond", "--config", cfg, "--out", str(out)]) == 0

    schema, header, steps = read_csv(out / "bench_steps.csv")
    assert schema == "# schema=precond-bench-steps v1"
    assert header == ["preconditioned", "pcg_tol", "newton_step",
                      "pcg_iters"]
    schema, header, totals = read_csv(out / "bench_totals.csv")
    assert schema == "# schema=precond-bench-totals v1"
    assert len(totals) == 2  # with and without, one tolerance
    by_flag = {int(r[0]): r for r in totals}
    assert set(by_flag) == {0, 1}
    # per-step rows add up to the reported totals
    for flag, row in by_flag.items():
        step_sum = sum(int(r[3]) for r in steps if int(r[0]) == flag)
        assert step_sum == int(row[3])


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
