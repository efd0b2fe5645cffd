import csv
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from deltatorus import cli, harness, scatterer
from deltatorus.cli import main
from deltatorus.errors import NumericError, ValidationError
from deltatorus.harness import sample_positions
from deltatorus.reporting import (
    PLOTDATA_SCHEMAS,
    dumps_json,
    fmt_float,
    plotdata_text,
    write_atomic,
)
from deltatorus.scatterer import find_new_eigenvalues

SPEC = {
    "dim": 2,
    "n_scatterers": 2,
    "m_center": 40,
    "seed": 17,
    "trials": 8,
    "phases": [0.0, 0.0],
    "l0_override": 4 * math.pi**2 * 1.2,
    "radius_factor": 8.0,
    "observable": {"0,0": [1.0, 0.0], "2,0": [0.5, 0.0], "-2,0": [0.5, 0.0]},
}


def write_spec(tmp_path, **overrides):
    obj = dict(SPEC)
    obj.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return path


def write_config(tmp_path, n=1):
    cfg = {
        "dim": 2,
        "positions": [[0.37, 0.11], [0.73, 0.52], [0.21, 0.88]][:n],
        "u": {"phases": [0.0] * n},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_spectrum_idempotent(tmp_path, capsys):
    out = tmp_path / "cache"
    assert main(["spectrum", "--dim", "2", "--mmax", "500", "--out", str(out)]) == 0
    first = (out / "spectrum_d2_m500.csv").read_bytes()
    assert main(["spectrum", "--dim", "2", "--mmax", "500", "--out", str(out)]) == 0
    assert (out / "spectrum_d2_m500.csv").read_bytes() == first
    assert (out / "spectrum_d2_m500.manifest.json").exists()


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DELTATORUS_CACHE", str(tmp_path / "envcache"))
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--dim", "2", "--mmax", "100"]) == 0
    assert (tmp_path / "envcache" / "spectrum_d2_m100.csv").exists()


def test_artifact_conflict_exit_code(tmp_path):
    out = tmp_path / "cache"
    assert main(["spectrum", "--dim", "2", "--mmax", "500", "--out", str(out)]) == 0
    (out / "spectrum_d2_m500.csv").write_text("corrupted")
    assert main(["spectrum", "--dim", "2", "--mmax", "500", "--out", str(out)]) == 4


def test_validation_exit_code(tmp_path, capsys):
    assert main(["sprime", "--dim", "2", "--mlo", "50", "--mhi", "40",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"


def test_unknown_spec_key_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, grid_points=128)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert "grid_points" in record["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "spec_overrides,extra_args",
    [({}, ["--seed", "-1"]), ({}, ["--seed", str(2**64)]), ({"dim": 4}, []),
     ({"n_scatterers": 0, "phases": []}, []), ({"seed": 1.5}, []), ({"seed": True}, []),
     ({"trials": 2.5}, []), ({"n_scatterers": 2.5}, []), ({"dim": 2.0}, []),
     ({"radius_factor": math.inf}, []), ({"radius_factor": "1.6"}, []),
     ({"radius_factor": True}, []), ({"delta": "0.3"}, []), ({"solver_tol": "1e-8"}, []),
     ({"solver_tol": -1.0}, []), ({"delta": math.nan}, []), ({"gamma_eps": None}, []),
     ({"synthetic_lambda_frac": 1.5}, []), ({"coefficient_mode": "synthetic"}, []),
     ({"coefficient_mode": "synthetic", "synthetic_coeffs": [[1.0, 0.0], [1.0, 0.0]]}, []),
     ({"phases": [0.0, 0.4]}, []), ({"phases": [0.0]}, []),
     ({"phases": [0.0, 0.4], "coefficient_mode": "synthetic",
       "synthetic_coeffs": [[1.0, 0.0], [0.0, 0.0]]}, []),
     ({"u_matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, [])],
    ids=["seed_negative", "seed_2_64", "dim4", "no_scatterers", "seed_fraction", "seed_bool",
         "trials_fraction", "scatterers_fraction", "dim_float", "radius_factor_inf",
         "radius_factor_str", "radius_factor_bool", "delta_str", "solver_tol_str",
         "solver_tol_negative", "delta_nan", "gamma_eps_none", "lambda_frac_above",
         "synthetic_no_coeffs", "synthetic_unnormalized", "phases_distinct", "phases_short",
         "phases_distinct_synthetic", "u_matrix"],
)
def test_out_of_range_spec_exit_code(tmp_path, capsys, spec_overrides, extra_args):
    spec = write_spec(tmp_path, **spec_overrides)
    code = main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run"), *extra_args])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert not (tmp_path / "run").exists()


def test_observable_dimension_exit_code(tmp_path, capsys):
    obs = {"0,0": [1.0, 0.0], "1,0,0": [0.5, 0.0], "-1,0,0": [0.5, 0.0]}
    spec = write_spec(tmp_path, observable=obs)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert "1,0,0" in record["message"] and "2 components" in record["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "obs",
    [{"0,0": 1.0}, {"0,0": [1.0, 0.0], "1,0": [math.nan, 0.0], "-1,0": [math.nan, 0.0]},
     {"0,0": [1.0, 0.0, 0.0]}, {"0,0": [True, 0.0]}, {"0,0": ["1", "0"]}, [[1.0, 0.0]]],
    ids=["not_a_pair", "nan", "triple", "bool", "str", "not_a_map"],
)
def test_observable_value_exit_code(tmp_path, capsys, obs):
    # measure reads the observable file, mc the spec's observable
    spec = write_spec(tmp_path, observable=obs)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert not (tmp_path / "run").exists()
    cfg = write_config(tmp_path, n=1)
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(obs))
    code = main(["measure", "--config", str(cfg), "--observable", str(path), "--mk", "25",
                 "--out", str(tmp_path / "meas")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert not (tmp_path / "meas").exists()


BAD_CONFIGS = {
    "nan_coordinate": {"dim": 2, "positions": [[0.37, math.nan], [0.73, 0.52]],
                       "u": {"phases": [0.0, 0.0]}},
    "no_u": {"dim": 2, "positions": [[0.37, 0.11], [0.73, 0.52]]},
    "matrix": {"dim": 2, "positions": [[0.37, 0.11], [0.73, 0.52]],
               "u": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
    "distinct_phases": {"dim": 2, "positions": [[0.37, 0.11], [0.73, 0.52]],
                        "u": {"phases": [0.0, 0.4]}},
    "phases_short": {"dim": 2, "positions": [[0.37, 0.11], [0.73, 0.52]],
                     "u": {"phases": [0.0]}},
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exit_code(tmp_path, capsys, name):
    # every subcommand that reads a config rejects it at load
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS[name]))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"0,0": [1.0, 0.0], "2,0": [0.5, 0.0], "-2,0": [0.5, 0.0]}))
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    measure = ["measure", "--config", str(cfg), "--observable", str(obs), "--mk", "25"]
    for i, args in enumerate((["solve", "--config", str(cfg), "--mk", "25"], measure,
                              measure + ["--coeffs", str(coeffs)])):
        out = tmp_path / f"out{i}"
        assert main([*args, "--out", str(out)]) == 2, args
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ValidationError"
        assert not out.exists()


def test_sprime_outputs(tmp_path):
    out = tmp_path / "win"
    code = main([
        "sprime", "--dim", "2", "--mlo", "200", "--mhi", "400",
        "--delta", "0.3", "--eps", "0.05", "--eps-prime", "0.2",
        "--density-bins", "2", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "window_d2_200_400.csv").read_text().splitlines()
    assert rows[0] == "m_k,gap_ok,coeff_ok,accepted"
    summary = json.loads((out / "window_d2_200_400.json").read_text())
    assert 0.0 <= summary["density"] <= 1.0
    density_rows = (out / "window_d2_200_400_density.csv").read_text().splitlines()
    assert density_rows[0] == "X,density"
    assert len(density_rows) == 3


def test_solve_and_measure(tmp_path):
    cfg = write_config(tmp_path, n=1)
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--mk", "40", "--out", str(out)]) == 0
    lines = (out / "roots_m40.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the unique root
    header = lines[0].split(",")
    assert header[:2] == ["root_index", "lambda_norm"]

    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"0,0": [1.0, 0.0], "2,0": [0.5, 0.0], "-2,0": [0.5, 0.0]}))
    mout = tmp_path / "meas"
    assert main([
        "measure", "--config", str(cfg), "--observable", str(obs),
        "--mk", "40", "--L0", str(4 * math.pi**2 * 1.2), "--out", str(mout),
    ]) == 0
    payload = json.loads((mout / "measure_m40.json").read_text())
    assert set(payload) >= {"A", "B", "C", "sigma", "split", "err", "envelope"}


@pytest.mark.parametrize(
    "extra_args",
    [["--coeffs", "COEFFS", "--lambda-frac", "1.5"], ["--coeffs", "COEFFS", "--lambda-frac", "0"],
     ["--radius-factor", "inf"], ["--radius-factor", "0"], ["--tol", "inf"], ["--tol", "nan"],
     ["--coeffs", "NAN_COEFFS"]],
    ids=["lambda_frac_above", "lambda_frac_zero", "radius_factor_inf", "radius_factor_zero",
         "tol_inf", "tol_nan", "coeffs_nan"],
)
def test_measure_rejects_out_of_range_parameters(tmp_path, capsys, extra_args):
    cfg = write_config(tmp_path, n=1)
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"0,0": [1.0, 0.0], "2,0": [0.5, 0.0], "-2,0": [0.5, 0.0]}))
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps([[1.0, 0.0]]))
    nan_coeffs = tmp_path / "nan.json"
    nan_coeffs.write_text(json.dumps([[math.nan, 0.0]]))
    paths = {"COEFFS": str(coeffs), "NAN_COEFFS": str(nan_coeffs)}
    extra_args = [paths.get(a, a) for a in extra_args]
    mout = tmp_path / "meas"
    code = main([
        "measure", "--config", str(cfg), "--observable", str(obs), "--mk", "25",
        "--out", str(mout), *extra_args,
    ])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert not mout.exists()


MEASURE = ["measure", "--config", "CFG", "--observable", "OBS", "--mk", "25", "--out", "OUT"]
GOOD_COEFFS = [[0.6, 0.0], [0.0, 0.8]]
SPRIME = ["sprime", "--dim", "2", "--mlo", "200", "--mhi", "400", "--eps-prime", "0.2",
          "--out", "OUT"]

#: inputs every subcommand must reject with a ValidationError: id -> (argv, coeffs file)
REJECTED_INPUTS = {
    "coeffs_str": (MEASURE + ["--coeffs", "COEFFS"], [["a", 0], [0, 0]]),
    "coeffs_one_for_two": (MEASURE + ["--coeffs", "COEFFS"], [[1.0, 0.0]]),
    "coeffs_not_a_list": (MEASURE + ["--coeffs", "COEFFS"], {"re": 1.0}),
    "coeffs_tol_inf": (MEASURE + ["--coeffs", "COEFFS", "--tol", "inf"], GOOD_COEFFS),
    "solver_lambda_frac_above": (MEASURE + ["--lambda-frac", "1.5"], None),
    "delta_inf": (MEASURE + ["--delta", "inf"], None),
    "L0_inf": (MEASURE + ["--L0", "inf"], None),
    "scale_gamma_div_zero": (["scale", "--gamma", "1/0"], None),
    "scale_eps_div_zero": (["scale", "--gamma", "17/832", "--eps", "1/0"], None),
    "scale_gamma_inf": (["scale", "--gamma", "1e400"], None),
    "scale_E_nan": (["scale", "--E", "nan", "--L", "2"], None),
    "scale_L_nan": (["scale", "--E", "4", "--L", "nan"], None),
    "scale_E_inf": (["scale", "--E", "inf", "--L", "2"], None),
    "scale_rho_inf": (["scale", "--gamma", "17/832", "--rho", "inf"], None),
    "sprime_ccoeff_nan": (SPRIME + ["--ccoeff", "nan"], None),
    "sprime_cgap_nan": (SPRIME + ["--cgap", "nan"], None),
    "sprime_density_bins_negative": (SPRIME + ["--density-bins", "-1"], None),
    "sprime_eps_inf": (SPRIME + ["--eps", "inf"], None),
    "sprime_eps_prime_inf": (SPRIME + ["--eps-prime", "inf"], None),
    # (4 pi^2 m)^eps overflows float64, or only its square does
    "sprime_eps_overflow": (SPRIME + ["--eps", "1000"], None),
    "sprime_eps_shift_radius_overflow": (SPRIME + ["--eps", "50"], None),
    # a finite shift ball of about 2e8 points, refused before it is enumerated
    "sprime_eps_ball_too_large": (SPRIME + ["--eps", "1"], None),
    "mc_threads_negative": (["mc", "--spec", "SPEC", "--out", "OUT", "--threads", "-1"], None),
}


@pytest.mark.parametrize("name", sorted(REJECTED_INPUTS))
def test_rejected_input_exit_code(tmp_path, capsys, name):
    args, coeffs = REJECTED_INPUTS[name]
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(SPEC["observable"]))
    paths = {"CFG": write_config(tmp_path, n=2), "OBS": obs, "OUT": tmp_path / "out",
             "COEFFS": tmp_path / "c.json", "SPEC": write_spec(tmp_path)}
    paths["COEFFS"].write_text(json.dumps(coeffs))
    before = set(tmp_path.iterdir())
    assert main([str(paths.get(a, a)) for a in args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "ValidationError"
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("mode", ["solver", "coeffs"])
def test_measure_matches_mc_trials(tmp_path, mode):
    # measure on trial t's sampled config runs mc's trial body: same numbers
    flags = []
    if mode == "coeffs":
        spec = write_spec(tmp_path, coefficient_mode="synthetic", synthetic_coeffs=GOOD_COEFFS,
                          synthetic_lambda_frac=0.3)
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps(GOOD_COEFFS))
        flags = ["--coeffs", str(coeffs), "--lambda-frac", "0.3"]
    else:
        spec = write_spec(tmp_path)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "trials.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(SPEC["observable"]))
    measured = 0
    for row in rows:
        t = int(row["trial_index"])
        cfg = tmp_path / f"cfg{t}.json"
        positions = sample_positions(SPEC["seed"], t, 2, 2).tolist()
        cfg.write_text(json.dumps({"dim": 2, "positions": positions, "u": {"phases": [0.0, 0.0]}}))
        out = tmp_path / f"meas{t}"
        code = main(["measure", "--config", str(cfg), "--observable", str(obs), "--mk", "40",
                     "--L0", repr(SPEC["l0_override"]), "--radius-factor", "8",
                     "--out", str(out), *flags])
        if row["no_root"] == "1":
            assert code == 3
            continue
        assert code == 0
        p = json.loads((out / "measure_m40.json").read_text())
        got = {"lambda_norm": p["lambda_norm"], "b_val": p["B"], "c_val": p["C"],
               "annulus_sq": p["split"][0], "remainder_sq": p["split"][1],
               "norm_sq": p["norm_sq"], "err": p["err"]}
        got.update({"A_" + k.replace(",", "_"): v for k, v in p["A"].items()})
        assert {k: fmt_float(v) for k, v in got.items()} == {k: row[k] for k in got}
        measured += 1
    assert measured >= len(rows) // 2


def test_mc_reproducible_across_threads(tmp_path):
    spec = write_spec(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["mc", "--spec", str(spec), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--spec", str(spec), "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()
    # rerun into the same directory: identical content, no conflict
    assert main(["mc", "--spec", str(spec), "--out", str(out1), "--threads", "2"]) == 0


def test_mc_auto_workers_follow_the_affinity_mask(monkeypatch):
    # --threads 0 counts the cores this process may run on, not the machine's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._resolve_threads(0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert cli._resolve_threads(0) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert cli._resolve_threads(0) == 4
    assert cli._resolve_threads(6) == 6


def test_mc_numeric_error_in_a_worker_exits_3(tmp_path, monkeypatch):
    # mc builds a fresh context, so its pool forks with the patched trial
    def failing(spec, trial_index, ctx):
        raise NumericError(f"trial {trial_index} failed")

    monkeypatch.setattr(harness, "run_trial", failing)
    spec = write_spec(tmp_path)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "r"), "--threads", "2"]) == 3


def test_mc_dead_worker_exits_4(tmp_path, monkeypatch, capsys):
    real_trial = harness.run_trial

    def dying(spec, trial_index, ctx):
        if trial_index % 2:  # the forked child's share
            os._exit(1)
        return real_trial(spec, trial_index, ctx)

    monkeypatch.setattr(harness, "run_trial", dying)
    spec = write_spec(tmp_path)
    assert main(["mc", "--spec", str(spec), "--out", str(tmp_path / "r"), "--threads", "2"]) == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ChildProcessError"


def test_solve_rejects_a_ball_too_large_to_enumerate(tmp_path, capsys):
    # R = ceil(1.6 * 30000) = 48000 holds about 4.4e7 points in d = 3: the
    # same ceiling as the shift ball, so the same validation error (exit 2)
    cfg = tmp_path / "cfg3.json"
    cfg.write_text(json.dumps({"dim": 3, "positions": [[0.37, 0.11, 0.5]], "u": {"phases": [0.0]}}))
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--mk", "30000", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError" and "too large" in record["message"]
    assert not out.exists()


def test_solve_exits_3_when_a_later_root_search_fails(tmp_path, monkeypatch):
    # solve reads every root; the call solves root 0, then branch 1 gets no
    # steps, so the search fails while the roots are written out
    def fail_after_the_call(*args, **kwargs):
        roots = find_new_eigenvalues(*args, **kwargs)
        monkeypatch.setattr(scatterer, "MAX_BRANCH_STEPS", 0)
        return roots

    monkeypatch.setattr(scatterer, "find_new_eigenvalues", fail_after_the_call)
    cfg = write_config(tmp_path, n=3)
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(cfg), "--mk", "40", "--out", str(out)]) == 3
    assert not (out / "roots_m40.csv").exists()


def test_mc_two_pass_reference_means(tmp_path):
    # means pass on one seed, event counting against it on a fresh seed
    spec = write_spec(tmp_path, trials=520)
    ref_out = tmp_path / "ref"
    assert main(["mc", "--spec", str(spec), "--out", str(ref_out), "--threads", "3"]) == 0
    ref_agg = json.loads((ref_out / "aggregate.json").read_text())
    assert "events" in ref_agg
    ev_out = tmp_path / "ev"
    assert main([
        "mc", "--spec", str(spec), "--out", str(ev_out), "--threads", "3",
        "--seed", "99", "--ref-aggregate", str(ref_out / "aggregate.json"),
    ]) == 0
    agg = json.loads((ev_out / "aggregate.json").read_text())
    ref_means = agg["events"]["ref_means"]
    own_means = ref_agg["events"]["ref_means"]
    assert ref_means == own_means  # counting used the reference, not itself
    rows = (ev_out / "freq_vs_c0.csv").read_text().splitlines()
    assert rows[0] == "C0,freq,stderr,bound"


def test_mc_seed_override_changes_output(tmp_path):
    spec = write_spec(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--spec", str(spec), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--spec", str(spec), "--out", str(out2), "--threads", "1",
                 "--seed", "18"]) == 0
    assert (out1 / "trials.csv").read_bytes() != (out2 / "trials.csv").read_bytes()


def test_mc_trend_mode(tmp_path):
    spec = write_spec(tmp_path, trials=6)
    out = tmp_path / "trend"
    assert main([
        "mc", "--spec", str(spec), "--out", str(out), "--threads", "2",
        "--trend-mk", "40", "72", "136",
    ]) == 0
    rows = (out / "err_vs_lambda.csv").read_text().splitlines()
    assert rows[0] == "m_k,median_err,q10,q90,count,landings"
    assert len(rows) == 4


def test_mc_trend_skips_a_landing_only_center(tmp_path, capsys):
    # at m_k = 25 the shift (1, 0) takes (0, 5) onto the endpoint shell 26:
    # every trial lands, the center has no usable trials and a NaN median,
    # and the trend is read over the other centers alone
    obs = {"0,0": [1.0, 0.0], "1,0": [0.5, 0.0], "-1,0": [0.5, 0.0]}
    spec = write_spec(tmp_path, trials=6, observable=obs)
    out = tmp_path / "trend"
    assert main([
        "mc", "--spec", str(spec), "--out", str(out), "--threads", "1",
        "--trend-mk", "40", "25", "72", "136",
    ]) == 0
    with open(out / "err_vs_lambda.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["m_k"], r["count"], r["landings"]) for r in rows][1] == ("25", "0", "6")
    medians = [float(r["median_err"]) for r in rows if r["count"] != "0"]
    assert len(medians) == 3 and medians == sorted(medians, reverse=True)
    assert json.loads(capsys.readouterr().out.strip()) == {"monotone_nonincreasing": True}


def test_scale_command(capsys):
    assert main(["scale", "--check-gamma2"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["gamma2"] == "17/832" and payload["gamma2_ok"]

    assert main(["scale", "--E", "4", "--L", "2"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["lambda_physical"] == 16.0

    assert main(["scale", "--gamma", "1/12", "--dim", "3", "--E", "100", "--rho", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["alpha"] == "1/56" and payload["beta"] == "3/28"
    assert payload["threshold"] == pytest.approx(100 ** (1 / 56) * 0.5 ** (-3 / 28))

    assert main(["scale"]) == 2


@pytest.mark.parametrize(
    "gamma, eps",
    [("0.0204", None), ("17/832", "0.01"), ("0.0204", "1/100"), ("17/832", "1/100")],
    ids=["gamma_float", "eps_float", "gamma_float_eps_exact", "exact"],
)
def test_scale_exact_only_for_exact_exponents(capsys, gamma, eps):
    # one binary float among the exponents gives float exponents, not the
    # exact fraction of that float
    args = ["scale", "--gamma", gamma] + (["--eps", eps] if eps else [])
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    g, e = Fraction(gamma), Fraction(eps or 0)
    alpha, beta = (2 * g - e) / (6 + 4 * g - e), 1 / (6 + 4 * g - e)
    if "." in gamma or (eps and "." in eps):
        assert payload["alpha"] == pytest.approx(float(alpha), rel=1e-14)
        assert payload["beta"] == pytest.approx(float(beta), rel=1e-14)
    else:
        assert (payload["alpha"], payload["beta"]) == ("321/63146", "5200/31573")
        assert (Fraction(payload["alpha"]), Fraction(payload["beta"])) == (alpha, beta)


def test_missing_file_exit_code(tmp_path):
    assert main(["mc", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


def test_plotdata_schemas(tmp_path):
    text = plotdata_text("err_vs_lambda", [])
    assert text == "m_k,median_err,q10,q90\n"
    with pytest.raises(ValidationError):
        plotdata_text("unknown_kind", [])
    for kind, cols in PLOTDATA_SCHEMAS.items():
        rows = [{c: 1.0 for c in cols}]
        out = plotdata_text(kind, rows)
        assert out.splitlines()[0] == ",".join(cols)


TRIALS_HEADER = (
    "trial_index,no_root,root_count,lambda_norm,residual,b_val,c_val,A_-2_0,A_2_0,"
    "a_weighted,norm_sq,annulus_sq,remainder_sq,err,envelope,chain_c_ok,chain_b_ok,"
    "chain_ratio_ok,pair_one_exact,near_degenerate,endpoint_landing,event_a_running,"
    "event_b_running"
)


def test_csv_headers(tmp_path):
    # every CSV artifact's exact header; trials.csv follows TrialResult's fields
    spec = write_spec(tmp_path, trials=4)
    cfg = write_config(tmp_path, n=2)
    runs = {
        "mc/trials.csv": ["mc", "--spec", str(spec), "--out", str(tmp_path / "mc")],
        "trend/err_vs_lambda.csv": ["mc", "--spec", str(spec), "--out", str(tmp_path / "trend"),
                                    "--trend-mk", "40", "72"],
        "solve/roots_m40.csv": ["solve", "--config", str(cfg), "--mk", "40",
                                "--out", str(tmp_path / "solve")],
        "win/window_d2_200_400.csv": ["sprime", "--dim", "2", "--mlo", "200", "--mhi", "400",
                                      "--eps-prime", "0.2", "--density-bins", "2",
                                      "--out", str(tmp_path / "win")],
        "spec/spectrum_d2_m100.csv": ["spectrum", "--dim", "2", "--mmax", "100",
                                      "--out", str(tmp_path / "spec")],
    }
    for args in runs.values():
        assert main(args) == 0, args
    headers = {
        "mc/trials.csv": TRIALS_HEADER,
        "trend/err_vs_lambda.csv": "m_k,median_err,q10,q90,count,landings",
        "solve/roots_m40.csv":
            "root_index,lambda_norm,residual,second_smin,near_degenerate,d0_re,d0_im,d1_re,d1_im",
        "win/window_d2_200_400.csv": "m_k,gap_ok,coeff_ok,accepted",
        "win/window_d2_200_400_density.csv": "X,density",
        "spec/spectrum_d2_m100.csv": "m,r",
    }
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) > 1 and all(line.count(",") == header.count(",") for line in lines)
    assert [fmt_float(x) for x in (True, np.True_, False, np.False_)] == ["1", "1", "0", "0"]


def test_dumps_json_float_format():
    text = dumps_json({"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "n": 5, "flag": True, "none": None}


def test_write_atomic(tmp_path):
    p = tmp_path / "x.txt"
    assert write_atomic(p, "abc") is True
    assert write_atomic(p, "abc") is False
    from deltatorus.errors import ArtifactConflictError

    with pytest.raises(ArtifactConflictError):
        write_atomic(p, "different")
