import json
import math

import pytest

from deltatorus.cli import main
from deltatorus.errors import ValidationError
from deltatorus.reporting import (
    PLOTDATA_SCHEMAS,
    dumps_json,
    plotdata_text,
    write_atomic,
)

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
     ({"trials": 2.5}, []), ({"n_scatterers": 2.5}, []), ({"dim": 2.0}, [])],
    ids=["seed_negative", "seed_2_64", "dim4", "no_scatterers", "seed_fraction", "seed_bool",
         "trials_fraction", "scatterers_fraction", "dim_float"],
)
def test_out_of_range_spec_exit_code(tmp_path, capsys, spec_overrides, extra_args):
    spec = write_spec(tmp_path, **spec_overrides)
    code = main(["mc", "--spec", str(spec), "--out", str(tmp_path / "run"), *extra_args])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert not (tmp_path / "run").exists()


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


def test_mc_reproducible_across_threads(tmp_path):
    spec = write_spec(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["mc", "--spec", str(spec), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--spec", str(spec), "--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()
    # rerun into the same directory: identical content, no conflict
    assert main(["mc", "--spec", str(spec), "--out", str(out1), "--threads", "2"]) == 0


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
    assert rows[0] == "m_k,median_err,q10,q90"
    assert len(rows) == 4


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
