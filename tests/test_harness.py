"""Tests for the run harness and the command-line front end."""

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import anderson2d as a2
from anderson2d.harness import ConfigError, RunConfig, _fmt, emit_plotdata, run
from anderson2d import cli


# ---------------------------------------------------------------------------
# configuration


def test_config_json_round_trip_is_bit_exact():
    cfg = RunConfig(command="spectrum", n=16, seed=7, out="x",
                    potential="builtin:random:3", count=9, tol=1e-8)
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        RunConfig.from_json('{"command": "spectrum", "bogus": 1}')


def test_config_validation():
    with pytest.raises(ConfigError, match="command"):
        RunConfig(command="frobnicate").validate()
    with pytest.raises(ConfigError, match="even"):
        RunConfig(command="spectrum", n=7).validate()
    with pytest.raises(ConfigError, match="tol"):
        RunConfig(command="spectrum", tol=0.0).validate()
    with pytest.raises(ConfigError, match="max_iter"):
        RunConfig(command="solve-choquard", max_iter=-1).validate()
    assert RunConfig(command="spectrum").validate() is not None


def test_config_rejects_empty_time_and_sweep_lists():
    for name in ("times", "sweep_r", "sweep_T", "sweep_lambda"):
        with pytest.raises(ConfigError, match=name):
            RunConfig(command="kato-check", **{name: ()}).validate()


def test_config_rejects_kato_radius_not_above_spacing(tmp_path, capsys):
    # at n = 32, h = 0.196: the default sweep reaches r = 0.1
    with pytest.raises(ConfigError, match="sweep_r"):
        RunConfig(command="kato-check", n=32).validate()
    RunConfig(command="kato-check", n=32, sweep_r=(0.8, 0.4)).validate()
    code = cli.main(["kato-check", "--n", "32", "--sweep", "r=0.4,0.1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "sweep_r" in capsys.readouterr().err


def test_config_rejects_empty_green_band(tmp_path, capsys):
    # the Green band [4h, 0.3] is empty for every n < 84
    with pytest.raises(ConfigError, match="Green band"):
        RunConfig(command="diagnose-heat", n=82).validate()
    RunConfig(command="diagnose-heat", n=84).validate()
    code = cli.main(["diagnose-heat", "--n", "32", "--out", str(tmp_path)])
    assert code == 2
    assert "Green band" in capsys.readouterr().err


def test_config_rejects_kato_horizon_outside_unit_interval(tmp_path, capsys):
    with pytest.raises(ConfigError, match="sweep_T"):
        RunConfig(command="kato-check", n=16, sweep_r=(0.8,),
                  sweep_T=(0.5, 2.0)).validate()
    with pytest.raises(ConfigError, match="sweep_T"):
        RunConfig(command="kato-check", n=16, sweep_r=(0.8,),
                  sweep_T=(0.0,)).validate()
    RunConfig(command="kato-check", n=16, sweep_r=(0.8,),
              sweep_T=(1.0,)).validate()
    code = cli.main(["kato-check", "--n", "16", "--sweep", "r=0.8;T=2",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "sweep_T" in capsys.readouterr().err


def test_config_rejects_heat_times_outside_unit_interval(tmp_path, capsys):
    with pytest.raises(ConfigError, match="times"):
        RunConfig(command="diagnose-heat", n=96, times=(0.05, 2.0)).validate()
    with pytest.raises(ConfigError, match="times"):
        RunConfig(command="diagnose-heat", n=96, times=(-0.1,)).validate()
    RunConfig(command="diagnose-heat", n=96, times=(1.0,)).validate()
    code = cli.main(["diagnose-heat", "--n", "96", "--times", "2",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "times" in capsys.readouterr().err


def test_config_rejects_negative_resolvent_shift(tmp_path, capsys):
    with pytest.raises(ConfigError, match="sweep_lambda"):
        RunConfig(command="kato-check", n=16, sweep_r=(0.8,),
                  sweep_lambda=(1.0, -0.5)).validate()
    RunConfig(command="kato-check", n=16, sweep_r=(0.8,),
              sweep_lambda=(0.0,)).validate()
    code = cli.main(["kato-check", "--n", "16", "--sweep", "r=0.8;lambda=-1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "sweep_lambda" in capsys.readouterr().err


def test_config_rejects_spectrum_count_below_one(tmp_path, capsys):
    with pytest.raises(ConfigError, match="count"):
        RunConfig(command="spectrum", n=8, count=0).validate()
    RunConfig(command="spectrum", n=8, count=1).validate()
    code = cli.main(["spectrum", "--n", "8", "--count", "0",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "count" in capsys.readouterr().err


def test_config_rejects_fountain_count_below_one(tmp_path, capsys):
    with pytest.raises(ConfigError, match="count"):
        RunConfig(command="solve-fountain", n=8, count=0).validate()
    code = cli.main(["solve-fountain", "--n", "8", "--count", "0",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "count" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_config_rejects_spectrum_count_above_dimension(tmp_path, capsys):
    with pytest.raises(ConfigError, match="count"):
        RunConfig(command="spectrum", n=8, count=65).validate()
    RunConfig(command="spectrum", n=8, count=64).validate()
    code = cli.main(["spectrum", "--n", "8", "--count", "65",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "count" in capsys.readouterr().err


def test_emit_plotdata_format(tmp_path):
    path = emit_plotdata([(1, 1.0 / 3.0), (2, np.pi)],
                         tmp_path / "t.csv", ["k", "v"])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,v"
    assert lines[1].split(",")[1] == _fmt(1.0 / 3.0)
    # 17 significant digits: value survives a parse round trip exactly
    assert float(lines[2].split(",")[1]) == np.pi


def test_emit_plotdata_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_plotdata([], tmp_path / "t.csv", ["k", "v"])


# ---------------------------------------------------------------------------
# pipelines


def test_sample_noise_run_is_deterministic(tmp_path):
    m1 = run(RunConfig(command="sample-noise", n=16, seed=5,
                       out=str(tmp_path / "a")))
    m2 = run(RunConfig(command="sample-noise", n=16, seed=5,
                       out=str(tmp_path / "b")))
    m3 = run(RunConfig(command="sample-noise", n=16, seed=6,
                       out=str(tmp_path / "c")))
    # config.json embeds the out path, so compare the numeric artifact
    assert m1.checksums["noise.f64"] == m2.checksums["noise.f64"]
    assert m1.checksums["noise.f64"] != m3.checksums["noise.f64"]
    # manifest is written and reloads
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["rng_algorithm"] == a2.RNG_ALGORITHM
    assert man["checksums"] == m1.checksums



def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert cli.main(["sample-noise", "--n", "8", "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "blas": blas["name"], "blas_version": blas["version"],
                   "openblas_num_threads": "1"}

def test_sample_noise_cutoff(tmp_path):
    run(RunConfig(command="sample-noise", n=16, seed=5, cutoff=3,
                  out=str(tmp_path)))
    g, field = a2.load_field(str(tmp_path / "noise.f64"))
    coeffs = np.fft.fft2(field) / (g.n * g.n)
    k_inf = np.maximum(np.abs(g.k1), np.abs(g.k2))
    assert np.max(np.abs(coeffs[k_inf > 3])) <= 1e-14 * np.max(np.abs(coeffs))


def test_spectrum_run(tmp_path):
    run(RunConfig(command="spectrum", n=8, seed=3, count=5,
                  potential="builtin:random:2", out=str(tmp_path)))
    rep = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(rep["eigenvalues"]) >= 5
    assert rep["delta"] > 0
    assert isinstance(rep["m"], int)
    assert max(rep["residuals"]) <= 1e-8


def test_spectrum_run_keeps_the_pair_that_places_m(tmp_path):
    # count 1 below a spectrum with m >= 1 non-positive pairs
    code = cli.main(["spectrum", "--n", "8", "--seed", "1", "--count", "1",
                     "--potential", "builtin:const:-8", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "spectrum.json").read_text())
    assert rep["m"] >= 1
    assert len(rep["eigenvalues"]) == rep["m"] + 2
    assert rep["eigenvalues"][-1] > 0
    assert rep["delta"] > 0


def test_kato_check_run(tmp_path):
    cfg = RunConfig(command="kato-check", n=32, seed=3,
                    potential="builtin:random:2", out=str(tmp_path),
                    sweep_r=(0.8, 0.4), sweep_T=(1.0, 0.25),
                    sweep_lambda=(1.0, 100.0))
    run(cfg)
    for name in ("kato_log.csv", "kato_heat.csv", "resolvent_sweep.csv",
                 "report.json"):
        assert (tmp_path / name).exists()
    rows = (tmp_path / "kato_log.csv").read_text().splitlines()
    assert rows[0] == "r,modulus"
    assert len(rows) == 3
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert set(timings) == {"operator", "kato_log", "kato_heat", "resolvent"}
    assert all(t >= 0 for t in timings.values())


def test_diagnose_heat_cli_run(tmp_path):
    # n = 84 is the smallest grid whose Green band [4h, 0.3] is non-empty
    argv = ["diagnose-heat", "--n", "84", "--seed", "1", "--times", "0.05,0.1"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    assert set(rep) == {"a1", "a2", "alpha", "epsilon", "min_kernel",
                        "negative_sites", "green_ratio_low",
                        "green_ratio_high"}
    scalars = [v for k, v in rep.items() if k != "negative_sites"]
    assert all(np.isfinite(scalars))
    assert 0 < rep["green_ratio_low"] <= rep["green_ratio_high"]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert set(manifest["timings"]) == {"operator", "heat", "green"}
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


def test_file_backed_specs(tmp_path, capsys):
    g16 = a2.TorusGrid(16)
    a2.save_field(g16, a2.spike(g16, 2).field, tmp_path / "spike.f64")
    for name, spec in (("file", str(tmp_path / "spike.f64")),
                       ("builtin", "builtin:spike:2")):
        assert cli.main(["spectrum", "--n", "16", "--potential", spec,
                         "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "file" / "spectrum.json").read_bytes()
            == (tmp_path / "builtin" / "spectrum.json").read_bytes())

    g8 = a2.TorusGrid(8)
    a2.save_field(g8, g8.zeros(), tmp_path / "small.f64")
    assert cli.main(["spectrum", "--n", "16", "--potential",
                     str(tmp_path / "small.f64"),
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "potential" in err

    a2.save_field(g8, -np.ones((8, 8)), tmp_path / "w.f64")
    for name, spec in (("wfile", str(tmp_path / "w.f64")),
                       ("wbuiltin", "builtin:negconst:1")):
        assert cli.main(["solve-choquard", "--n", "8", "--init", "random:5",
                         "--w", spec, "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "wfile" / "result_0.json").read_bytes()
            == (tmp_path / "wbuiltin" / "result_0.json").read_bytes())

    assert cli.main(["solve-choquard", "--n", "8", "--init", "zero",
                     "--out", str(tmp_path / "zero")]) == 0
    res = json.loads((tmp_path / "zero" / "result_0.json").read_text())
    assert res["iterations"] == 0


def test_solve_mp_run(tmp_path):
    run(RunConfig(command="solve-mp", n=16, seed=1, tol=1e-8,
                  out=str(tmp_path)))
    res = json.loads((tmp_path / "result_0.json").read_text())
    assert res["converged"]
    assert res["phi"] > 0
    assert res["m"] == -1  # the solver's info, and nothing else of it
    work = ("nehari_gradient_steps", "nehari_newton_steps",
            "nehari_pcg_iterations")
    assert set(res) == {"phi", "residual_l2", "grad_e_norm", "iterations",
                        "method", "converged", "seed", "m", *work}
    # the accepted start is e_0: its descent wrote one trace row per iterate,
    # and the polish's steps make up the rest of the iterations
    rows = (tmp_path / "trace_0.csv").read_text().splitlines()[1:]
    steps = res["nehari_gradient_steps"] + res["nehari_newton_steps"]
    assert steps == len(rows) - 1
    assert steps <= res["iterations"] <= steps + 100
    g, u = a2.load_field(str(tmp_path / "solution_0.f64"))
    assert a2.norm_l2(g, u) > 1e-3


def test_solve_fountain_skips_a_nehari_start_that_overflows(tmp_path):
    # the descent from e_3 diverges until energy() overflows; the sweep
    # treats that start as failed and finds its levels elsewhere
    assert cli.main(["solve-fountain", "--n", "48", "--seed", "7",
                     "--potential", "builtin:spike:2", "--count", "3",
                     "--tol", "1e-5", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["phi"] == pytest.approx(
        [1.6707024251, 6.7990497858, 9.8408196901], rel=1e-9)


def test_solve_choquard_run(tmp_path):
    run(RunConfig(command="solve-choquard", n=8, seed=2, tol=1e-6,
                  init="random:5", max_iter=2000, out=str(tmp_path)))
    res = json.loads((tmp_path / "result_0.json").read_text())
    assert res["converged"]
    assert res["selfdual_value"] <= 1e-12
    assert res["line_search_trials"] >= res["iterations"] > 0
    assert res["gmres_iterations"] >= res["iterations"]
    assert res["trivial"] is True  # u = 0 is the only solution here
    assert res["method"] == "selfdual"
    assert res["phi"] == res["selfdual_value"]
    assert "warning" not in res
    header = (tmp_path / "trace_0.csv").read_text().splitlines()[0]
    assert header == "iter,selfdual_value,residual_l2"


def test_solve_choquard_unconverged_exit_code(tmp_path, capsys):
    code = cli.main(["solve-choquard", "--n", "16", "--init", "one",
                     "--max-iter", "1", "--out", str(tmp_path)])
    assert code == 3
    assert "partial result" in capsys.readouterr().err
    res = json.loads((tmp_path / "result_0.json").read_text())
    assert res["converged"] is False
    assert res["iterations"] == 1
    assert res["line_search_trials"] >= 1
    assert "max_iter reached" in res["warning"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == [res["warning"]]
    assert manifest["error"] is None
    assert "result_0.json" in manifest["checksums"]


def test_solve_choquard_converges_within_ten_iterations(tmp_path):
    # the unscaled --init random:1 start at n = 32: the preconditioned
    # gradient direction took 37 iterations, the Newton direction takes 6
    assert cli.main(["solve-choquard", "--n", "32", "--init", "random:1",
                     "--max-iter", "10", "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "result_0.json").read_text())
    assert res["converged"] and res["iterations"] <= 10


@pytest.mark.parametrize("found", [0, 1])
def test_solve_fountain_partial_result(tmp_path, monkeypatch, capsys, found):
    def short(problem, n_solutions, **kwargs):
        g = problem.grid
        return [a2.SolveResult(u=np.ones((g.n, g.n)), phi=1.0 + i,
                               residual_l2=0.0, grad_e_norm=0.0, iterations=1,
                               method="fountain", converged=True)
                for i in range(found)]
    monkeypatch.setattr(a2.variational, "fountain_solve", short)
    code = cli.main(["solve-fountain", "--n", "8", "--count", "3",
                     "--out", str(tmp_path)])
    assert code == 3
    assert "partial result" in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["found"] == found
    assert summary["warning"] == (f"requested 3 solutions, "
                                  f"found {found} distinct levels")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == [summary["warning"]]
    assert "summary.json" in manifest["checksums"]


def test_solve_fountain_results_carry_the_solver_info(tmp_path, monkeypatch):
    solve, returned = a2.variational.fountain_solve, []

    def spy(*args, **kwargs):
        returned.extend(solve(*args, **kwargs))
        return returned
    monkeypatch.setattr(a2.variational, "fountain_solve", spy)
    assert cli.main(["solve-fountain", "--n", "16", "--seed", "1",
                     "--count", "2", "--out", str(tmp_path)]) == 0
    assert len(returned) == 2
    # the rejections are written once, into summary.json
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["rejected_same_level"]
            == returned[0].info["rejected_same_level"])
    for i, sol in enumerate(returned):
        res = json.loads((tmp_path / f"result_{i}.json").read_text())
        assert res["start_direction"] == sol.info["start_direction"]
        assert "rejected_same_level" not in res
        assert res["phi"] == sol.phi and res["method"] == "fountain"


def test_failed_stage_leaves_its_artifacts(tmp_path, monkeypatch, capsys):
    def stalled(op, a, spectrum):
        raise a2.SolverError("gap stalled")
    monkeypatch.setattr(a2.spectral, "gap_delta", stalled)
    code = cli.main(["spectrum", "--n", "16", "--seed", "7", "--potential",
                     "builtin:spike:2", "--out", str(tmp_path)])
    assert code == 3
    assert "solver error: gap stalled" in capsys.readouterr().err
    spec = json.loads((tmp_path / "spectrum.json").read_text())
    assert set(spec) == {"eigenvalues", "m", "residuals"}
    assert len(spec["eigenvalues"]) == len(spec["residuals"]) >= 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error"] == {"stage": "gap", "type": "SolverError",
                                 "message": "gap stalled"}
    assert set(manifest["checksums"]) == {"spectrum.json", "config.json"}
    assert set(manifest["timings"]) == {"operator", "eigendecompose", "gap"}
    assert json.loads((tmp_path / "config.json").read_text())["n"] == 16


def test_failed_operator_stage_leaves_a_manifest(tmp_path, monkeypatch,
                                                  capsys):
    # the operator is built before the output directory; its failure still
    # makes the directory and writes config.json and the manifest, while a
    # configuration error still exits 2 and writes nothing
    bad = tmp_path / "bad"
    assert cli.main(["spectrum", "--n", "16", "--potential", "builtin:nope",
                     "--out", str(bad)]) == 2
    assert not bad.exists()

    def stalled(grid, xi):
        raise a2.SolverError("lambda_max stalled")
    monkeypatch.setattr(a2.harness, "AndersonOperator", stalled)
    out = tmp_path / "run"
    code = cli.main(["spectrum", "--n", "16", "--seed", "7", "--out",
                     str(out)])
    assert code == 3
    assert "solver error: lambda_max stalled" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == {"stage": "operator", "type": "SolverError",
                                 "message": "lambda_max stalled"}
    assert set(manifest["timings"]) == {"operator"}
    assert set(manifest["checksums"]) == {"config.json"}
    assert json.loads((out / "config.json").read_text())["n"] == 16


def test_solve_fountain_passes_max_iter(tmp_path, monkeypatch):
    seen = {}

    def spy(problem, n_solutions, **kwargs):
        seen.update(kwargs)
        return []
    monkeypatch.setattr(a2.variational, "fountain_solve", spy)
    cli.main(["solve-fountain", "--n", "8", "--max-iter", "7",
              "--out", str(tmp_path)])
    assert seen["max_iter"] == 7


def test_solve_mp_has_no_count_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve-mp", "--n", "8", "--count", "3",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_reproducibility_across_directories(tmp_path):
    """Identical configs except `out` give byte-identical numeric outputs."""
    cfg1 = RunConfig(command="spectrum", n=8, seed=9, count=4,
                     potential="builtin:random:7", out=str(tmp_path / "r1"))
    cfg2 = RunConfig(command="spectrum", n=8, seed=9, count=4,
                     potential="builtin:random:7", out=str(tmp_path / "r2"))
    m1, m2 = run(cfg1), run(cfg2)
    sums1 = {k: v for k, v in m1.checksums.items() if k != "config.json"}
    sums2 = {k: v for k, v in m2.checksums.items() if k != "config.json"}
    assert sums1 == sums2


# ---------------------------------------------------------------------------
# command line


def test_cli_success_exit_code(tmp_path, capsys):
    code = cli.main(["sample-noise", "--n", "16", "--seed", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "noise.f64").exists()
    assert "artifacts" in capsys.readouterr().out


def test_cli_runs_as_a_module(tmp_path):
    # from a checkout, without the installed anderson2d script
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "anderson2d", "spectrum", "--n", "8",
         "--seed", "7", "--count", "3", "--out", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "spectrum.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["sample-noise", "--n", "7", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_solver_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise a2.SolverError("synthetic failure")
    monkeypatch.setattr(cli, "run", boom)
    code = cli.main(["sample-noise", "--out", str(tmp_path)])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_cli_inconsistency_exit_code(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise a2.SelfDualInconsistencyError("synthetic failure")
    monkeypatch.setattr(cli, "run", boom)
    code = cli.main(["sample-noise", "--out", str(tmp_path)])
    assert code == 4
    assert "inconsistency" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(command="sample-noise", n=16,
                                  seed=11).to_json())
    out = tmp_path / "out"
    code = cli.main(["sample-noise", "--config", str(cfg_path),
                     "--seed", "12", "--out", str(out)])
    assert code == 0
    written = RunConfig.from_json((out / "config.json").read_text())
    assert written.n == 16
    assert written.seed == 12


def test_cli_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ANDERSON2D_OUT_ROOT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["sample-noise", "--n", "8", "--seed", "1"])
    assert code == 0
    assert (tmp_path / "sample-noise" / "noise.f64").exists()


def test_cli_sweep_help_example_parses(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["kato-check", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    example = help_text.split('e.g. "')[1].split('"')[0]
    args = cli.build_parser().parse_args(["kato-check", "--sweep", example])
    config = cli.config_from_args(args)
    assert config.sweep_r == (0.8, 0.4)
    assert config.sweep_T == (0.5,)
    assert config.sweep_lambda == (1.0, 10.0)


@pytest.mark.parametrize("argv,named", [
    (["spectrum", "--potential", "builtin:nope"], "potential"),
    (["spectrum", "--potential", "builtin:const"], "potential"),
    (["spectrum", "--potential", "builtin:spike:0.5"], "potential"),
    (["spectrum", "--potential", "MISSING.f64"], "potential"),
    (["spectrum", "--potential", "MISSING.txt"], "potential"),
    (["solve-mp", "--nonlinearity", "cube"], "nonlinearity"),
    (["solve-mp", "--nonlinearity", "pow:3"], "nonlinearity"),
    (["solve-choquard", "--init", "random:x"], "init"),
    (["solve-choquard", "--init", "bogus"], "init"),
    (["solve-choquard", "--w", "builtin:negconst:x"], "w_spec"),
    (["solve-choquard", "--w", "MISSING.f64"], "w_spec"),
    (["solve-choquard", "--p", "0.5"], "choquard problem"),
    (["solve-choquard", "--a", "builtin:const:-1"], "choquard problem"),
    (["solve-choquard", "--w", "builtin:negconst:nan"], "choquard problem"),
    (["sample-noise", "--cutoff", "-1"], "cutoff"),
    (["sample-noise", "--cutoff", "5"], "cutoff"),
    (["kato-check", "--sweep", "r=abc"], "'r'"),
    (["kato-check", "--sweep", "r="], "'r'"),
    (["kato-check", "--sweep", "x=1;r=0.8"], "'x'"),
    (["kato-check", "--sweep", "r=0.8;r=0.4"], "'r'"),
])
def test_cli_malformed_input_is_a_config_error(tmp_path, capsys, argv, named):
    argv = [a.replace("MISSING", str(tmp_path / "missing")) for a in argv]
    out = tmp_path / "out"
    code = cli.main(argv + ["--n", "8", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,named", [
    ("spectrum", None, "cannot read"),
    ("spectrum", '{"command": ', "not valid JSON"),
    ("spectrum", '["spectrum"]', "JSON object"),
    ("spectrum", '{"command": "spectrum", "n": "16"}', "n:"),
    ("spectrum", '{"command": "spectrum", "n": 16.0}', "n:"),
    ("spectrum", '{"command": "spectrum", "seed": true}', "seed:"),
    ("spectrum", '{"command": "spectrum", "tol": "1e-6"}', "tol:"),
    ("solve-mp", '{"command": "solve-mp", "n": 16, "tol": NaN}', "tol:"),
    ("solve-choquard", '{"command": "solve-choquard", "q": NaN}', "choquard"),
    ("spectrum", '{"command": "spectrum", "potential": 3}', "potential:"),
    ("diagnose-heat", '{"command": "diagnose-heat", "times": 0.1}', "times:"),
    ("diagnose-heat", '{"command": "diagnose-heat", "times": ["0.1"]}', "times:"),
    ("diagnose-heat", '{"command": "diagnose-heat", "n": 96, "times": []}',
     "times:"),
    ("kato-check", '{"command": "kato-check", "n": 32, "sweep_T": []}', "sweep_T:"),
    ("kato-check", '{"command": "kato-check", "n": 32, "sweep_r": []}', "sweep_r:"),
    ("kato-check", '{"command": "kato-check", "n": 32, "sweep_lambda": []}',
     "sweep_lambda:"),
])
def test_cli_bad_config_file_is_a_config_error(tmp_path, capsys, command, text,
                                               named):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code = cli.main([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and named in err
    assert "Traceback" not in err


def test_every_cli_option_is_a_config_field():
    names = {f.name for f in dataclasses.fields(RunConfig)}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.dest not in ("config", "sweep"):
                assert action.dest in names, (command, action.dest)
    assert set(cli._SWEEP_FIELDS.values()) <= names
