"""Command-line interface: file round trips, verbs, exit codes."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import spiked_sample_cov
from remlpc import cli
from remlpc.model import CurveData, SampleCov
from remlpc.sim import make_true_kernel, sample_dataset


@pytest.fixture
def curves_file(tmp_path):
    truth = make_true_kernel("fourier", [2.0, 1.0], seed=1)
    data = sample_dataset(truth, "sparse", 12, (3, 12, 0), sigma2=0.25, m_bounds=(4, 6))
    path = tmp_path / "curves.csv"
    cli.write_curves_csv(str(path), data)
    return path, data


@pytest.fixture
def cov_file(tmp_path):
    S = spiked_sample_cov(6, 2, 400, seed=2)
    path = tmp_path / "cov.csv"
    cli.write_cov_csv(str(path), SampleCov(S, 400))
    return path, S


@pytest.fixture
def params_file(tmp_path, cov_file):
    from remlpc.matrixcase import pca_fit

    path = tmp_path / "params.json"
    cli.write_params_json(str(path), pca_fit(cov_file[1], 2))
    return path


# ------------------------------------------------------------ round trips


def test_curves_csv_roundtrip(curves_file):
    path, data = curves_file
    back = cli.read_curves_csv(str(path))
    assert back.n == data.n
    for a, b in zip(back.curves, data.curves):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)


def test_curves_csv_keeps_first_appearance_order(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("curve_id,t,y\nb,0.5,1.0\na,0.1,2.0\nb,0.6,3.0\n")
    d = cli.read_curves_csv(str(p))
    assert d.n == 2
    assert np.array_equal(d.curves[0].times, [0.5, 0.6])  # curve b first
    assert np.array_equal(d.curves[1].values, [2.0])


def test_cov_csv_roundtrip_with_sidecar(cov_file, tmp_path):
    path, S = cov_file
    assert (tmp_path / "cov.json").exists()
    back = cli.read_cov_csv(str(path))
    assert back.n == 400
    assert np.array_equal(back.cov, S)


def test_params_json_roundtrip(tmp_path, cov_file):
    from remlpc.matrixcase import pca_fit

    _, S = cov_file
    p = pca_fit(S, 2)
    path = tmp_path / "params.json"
    cli.write_params_json(str(path), p)
    q = cli.read_params_json(str(path))
    assert np.array_equal(q.B.B, p.B.B) and np.array_equal(q.lam, p.lam)


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_64(tmp_path, capsys):
    assert cli.main(["fit"]) == 64  # missing required flags
    assert cli.main(["no-such-verb"]) == 64
    p = tmp_path / "c.csv"
    p.write_text("curve_id,t,y\na,0.5,1.0\na,0.6,2.0\n")
    assert cli.main(["fit", "--data", str(p), "--r", "1", "--sigma2", "1",
                     "--regime", "sparse"]) == 64  # functional fit needs --M
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["basis", "--M", "3", "--out", "{out}"], "--M"),
    (["fit", "--data", "{data}", "--M", "3", "--r", "2", "--sigma2", "0.25"], "--M"),
    (["design-check", "--M", "3", "--m", "5"], "--M"),
    (["design-check", "--M", "5", "--m", "5", "--n", "0"], "--n"),
    (["design-check", "--M", "5", "--m", "0"], "--m"),
    (["design-check", "--M", "4", "--m", "5", "--r", "6"], "--r"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "5", "--sigma2", "0.25",
      "--out", "{out}"], "--r"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "0", "--sigma2", "0.25",
      "--out", "{out}"], "--r"),
    (["fit", "--data", "{cov}", "--regime", "matrix", "--r", "7", "--sigma2", "1",
      "--out", "{out}"], "--r"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0",
      "--out", "{out}"], "--sigma2"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0.25", "--s", "0",
      "--out", "{out}"], "--s"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0.25",
      "--max-iter", "-3", "--out", "{out}"], "--max-iter"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0.25",
      "--restarts", "0", "--out", "{out}"], "--restarts"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0.25",
      "--grad-tol=-1", "--out", "{out}"], "--grad-tol"),
    (["fit", "--data", "{data}", "--M", "4", "--r", "2", "--sigma2", "0.25",
      "--grad-tol", "nan", "--out", "{out}"], "--grad-tol"),
    (["fit", "--data", "{cov}", "--regime", "matrix", "--r", "2", "--sigma2", "1",
      "--grad-tol", "0", "--out", "{out}"], "--grad-tol"),
    (["pca", "--data", "{cov}", "--r", "9", "--out", "{out}"], "--r"),
    (["pca", "--data", "{cov}", "--r", "0", "--out", "{out}"], "--r"),
    (["pca", "--data", "{cov}", "--r", "2", "--sigma2", "0", "--out", "{out}"], "--sigma2"),
    (["kl-scan", "--params", "{params}", "--alphas", "0", "--out", "{out}"], "--alphas"),
    (["kl-scan", "--params", "{params}", "--alphas=-0.001", "--out", "{out}"], "--alphas"),
    (["kl-scan", "--params", "{params}", "--alphas", ",", "--out", "{out}"], "--alphas"),
    (["kl-scan", "--params", "{params}", "--alphas", "nan", "--out", "{out}"], "--alphas"),
    (["kl-scan", "--params", "{params}", "--directions", "0", "--out", "{out}"],
     "--directions"),
    (["kl-scan", "--params", "{params}", "--directions", "-2", "--out", "{out}"],
     "--directions"),
], ids=["basis-M", "fit-M", "design-M", "design-n", "design-m", "design-r",
        "fit-r-high", "fit-r-zero", "fit-matrix-r", "fit-sigma2", "fit-s", "fit-max-iter",
        "fit-restarts", "fit-grad-tol-negative", "fit-grad-tol-nan", "fit-grad-tol-zero",
        "pca-r-high", "pca-r-zero", "pca-sigma2", "kl-alpha-zero",
        "kl-alpha-negative", "kl-alpha-empty", "kl-alpha-nan", "kl-directions-zero",
        "kl-directions-negative"])
def test_out_of_range_flags_exit_64(tmp_path, curves_file, cov_file, params_file, capsys,
                                    argv, flag):
    out = tmp_path / "out.csv"
    argv = [a.format(out=out, data=curves_file[0], cov=cov_file[0], params=params_file)
            for a in argv]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("target, text", [
    ("sidecar", "{not json"),
    ("sidecar", "[1, 2]"),
    ("sidecar", '{"n": null}'),
    ("sidecar", '{"n": 2.5}'),
    ("sidecar", '{"n": true}'),
    ("sidecar", '{"n": "7"}'),
    ("sidecar", '{"n": 0}'),
    ("sidecar", '{"count": 7}'),
    ("params", "{oops"),
    ("params", "[1, 2]"),
    ("params", '{"M": null, "r": 1, "B": [[1.0]], "lambda": [1.0], "sigma2": 1.0}'),
], ids=["sidecar-syntax", "sidecar-list", "sidecar-null-n", "sidecar-float-n", "sidecar-bool-n",
        "sidecar-string-n", "sidecar-zero-n", "sidecar-missing-n", "params-syntax",
        "params-list", "params-null-field"])
def test_malformed_json_exits_65_naming_the_file(tmp_path, cov_file, params_file, capsys,
                                                 target, text):
    cov, _ = cov_file
    bad = tmp_path / "cov.json" if target == "sidecar" else params_file
    bad.write_text(text)
    out = str(tmp_path / "out.csv")
    if target == "sidecar":
        runs = [["pca", "--data", str(cov), "--r", "2", "--out", out],
                ["fit", "--data", str(cov), "--regime", "matrix", "--r", "2",
                 "--sigma2", "1", "--out", out]]
    else:
        runs = [["kl-scan", "--params", str(params_file), "--out", out]]
    for argv in runs:
        assert cli.main(argv) == 65
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err


def test_missing_file_exits_66(tmp_path, capsys):
    rc = cli.main(["fit", "--data", str(tmp_path / "nope.csv"), "--M", "4",
                   "--r", "1", "--sigma2", "0.25"])
    assert rc == 66
    capsys.readouterr()


def test_missing_sidecar_exits_66(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("1.0,0.0\n0.0,1.0\n")
    rc = cli.main(["pca", "--data", str(p), "--r", "1", "--sigma2", "0.5",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 66
    capsys.readouterr()


def test_malformed_rows_exit_65_with_row_number(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("curve_id,t,y\na,0.5,1.0\na,oops,2.0\n")
    assert cli.main(["fit", "--data", str(p), "--M", "4", "--r", "1",
                     "--sigma2", "0.25"]) == 65
    err = capsys.readouterr().err
    assert "row 3" in err

    p2 = tmp_path / "d.csv"
    p2.write_text("curve_id,t,y\na,1.5,1.0\n")
    assert cli.main(["fit", "--data", str(p2), "--M", "4", "--r", "1",
                     "--sigma2", "0.25"]) == 65
    assert "row 2" in capsys.readouterr().err

    p3 = tmp_path / "e.csv"
    p3.write_text("t,y\n0.5,1.0\n")
    assert cli.main(["fit", "--data", str(p3), "--M", "4", "--r", "1",
                     "--sigma2", "0.25"]) == 65
    assert "expected header" in capsys.readouterr().err


def test_nonfinite_rows_exit_65_with_row_number(tmp_path, capsys):
    for k, row in enumerate(["a,0.5,nan", "a,0.5,inf", "a,nan,1.0"]):
        p = tmp_path / f"c{k}.csv"
        p.write_text(f"curve_id,t,y\na,0.2,1.0\n{row}\n")
        assert cli.main(["fit", "--data", str(p), "--M", "4", "--r", "1",
                         "--sigma2", "0.25"]) == 65
        assert "row 3: non-finite" in capsys.readouterr().err

    cov = tmp_path / "cov.csv"
    cov.write_text("2,0,0\n0,2,0\n0,nan,2\n")
    (tmp_path / "cov.json").write_text('{"n": 10}\n')
    for verb in (["pca"], ["fit", "--regime", "matrix"]):
        assert cli.main([*verb, "--data", str(cov), "--r", "1", "--sigma2", "1"]) == 65
        assert "row 3: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ("a,0.5", "expected 3 fields, got 2"),
    ("a,oops,2.0", "non-numeric t or y"),
    ("a,0.5,inf", "non-finite t or y"),
    ("a,1.5,2.0", "t=1.5 outside [0, 1]"),
])
def test_bad_row_is_named_by_its_file_line(tmp_path, capsys, bad, message):
    # blank lines and interleaved curve ids come first: the bad row is line 8
    # of the file but only the fifth data row
    p = tmp_path / "c.csv"
    p.write_text(f"curve_id,t,y\n\na,0.1,1.0\n\nb,0.2,2.0\na,0.3,3.0\n\n{bad}\nb,0.4,4.0\n")
    assert cli.main(["fit", "--data", str(p), "--M", "4", "--r", "1",
                     "--sigma2", "0.25"]) == 65
    assert f"row 8: {message}" in capsys.readouterr().err
    # a quoted curve id that spans two lines moves the bad row to line 9
    p.write_text(f'curve_id,t,y\n\na,0.1,1.0\n\n"b\nb",0.2,2.0\na,0.3,3.0\n\n{bad}\n')
    assert cli.main(["fit", "--data", str(p), "--M", "4", "--r", "1",
                     "--sigma2", "0.25"]) == 65
    assert f"row 9: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ["sparse", "dense"])
def test_fit_from_csv_builds_no_per_curve_objects(tmp_path, curves_file, monkeypatch, capsys,
                                                  regime):
    path, data = curves_file
    made = []
    init = CurveData.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurveData, "__init__", counting_init)
    rc = cli.main(["fit", "--data", str(path), "--M", "4", "--r", "2", "--sigma2", "0.25",
                   "--regime", regime, "--out", str(tmp_path / "fit.json")])
    assert rc in (0, 2) and made == []
    # the counter sees the per-curve views that Dataset.curves hands out
    assert len(cli.read_curves_csv(str(path)).curves) == len(made) == data.n
    capsys.readouterr()


def test_dense_regime_fits_exactly_as_sparse(tmp_path, curves_file, capsys):
    path, _ = curves_file
    outs = {}
    for regime in ("sparse", "dense"):
        outs[regime] = tmp_path / f"{regime}.json"
        assert cli.main(["fit", "--data", str(path), "--M", "4", "--r", "2", "--sigma2", "0.25",
                         "--regime", regime, "--out", str(outs[regime])]) == 0
    assert outs["sparse"].read_bytes() == outs["dense"].read_bytes()
    capsys.readouterr()


def test_fit_survives_a_trial_whose_loss_cannot_be_factored(tmp_path, capsys):
    # a random-start restart tries a step with overflowing eigenvalues, at
    # which the curves with m = 2 < r = 3 have a singular Woodbury system;
    # that trial is rejected, it does not blame the data
    truth = make_true_kernel("spline", [2.0, 1.0, 0.5], M_ref=5)
    data = sample_dataset(truth, "sparse", 512, (1, 8), sigma2=0.25, m_bounds=(2, 6))
    path = tmp_path / "curves.csv"
    cli.write_curves_csv(str(path), data)
    rc = cli.main(["fit", "--data", str(path), "--M", "8", "--r", "3", "--sigma2", "0.25",
                   "--restarts", "2", "--out", str(tmp_path / "fit.json")])
    assert rc in (0, 2), capsys.readouterr().err
    capsys.readouterr()


def test_nonconvergence_exits_2_but_writes(tmp_path, curves_file, capsys):
    path, _ = curves_file
    out = tmp_path / "fit.json"
    rc = cli.main(["fit", "--data", str(path), "--M", "4", "--r", "2",
                   "--sigma2", "0.25", "--max-iter", "1", "--grad-tol", "1e-14",
                   "--out", str(out)])
    assert rc == 2
    assert out.exists()
    cli.read_params_json(str(out))  # parses back
    capsys.readouterr()


# ------------------------------------------------------------------ verbs


def test_basis_verb_writes_grid(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    assert cli.main(["basis", "--M", "5", "--grid", "11", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,phi_1,phi_2,phi_3,phi_4,phi_5"
    assert len(lines) == 12
    capsys.readouterr()


def test_simulate_then_fit_pipeline(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "regime": "sparse", "n": 40, "seed": 5, "sigma2": 0.25,
        "m_bounds": [4, 6],
        "truth": {"family": "spline", "eigenvalues": [2.0, 1.0], "M_ref": 4, "seed": 2},
    }))
    data = tmp_path / "data.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "fit.json"
    rc = cli.main(["--quiet", "fit", "--data", str(data), "--M", "4", "--r", "2",
                   "--sigma2", "0.25", "--out", str(out)])
    assert rc == 0
    fitted = cli.read_params_json(str(out))
    assert fitted.M == 4 and fitted.r == 2
    assert fitted.lam[0] > fitted.lam[1] > 0.0
    capsys.readouterr()


def test_pca_and_matrix_fit_agree(tmp_path, cov_file, capsys):
    path, _ = cov_file
    pca_out = tmp_path / "pca.json"
    fit_out = tmp_path / "fit.json"
    assert cli.main(["pca", "--data", str(path), "--r", "2", "--sigma2", "1.0",
                     "--out", str(pca_out)]) == 0
    assert cli.main(["fit", "--data", str(path), "--regime", "matrix", "--r", "2",
                     "--sigma2", "1.0", "--out", str(fit_out)]) == 0
    a = cli.read_params_json(str(pca_out))
    b = cli.read_params_json(str(fit_out))
    assert np.max(np.abs(a.lam - b.lam)) < 1e-8
    assert np.max(np.abs(a.B.B - b.B.B)) < 1e-6
    capsys.readouterr()


def test_rates_verb_thread_invariance(tmp_path, capsys):
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({
        "regime": "matrix", "n_grid": [64, 128], "replicates": 3, "r": 2,
        "base_seed": 1, "truth": {"M": 8, "eigenvalues": [3.0, 1.0], "frame_seed": 1},
    }))
    out1 = tmp_path / "r1.csv"
    out4 = tmp_path / "r4.csv"
    assert cli.main(["--threads", "1", "rates", "--config", str(cfg),
                     "--out", str(out1)]) == 0
    assert cli.main(["--threads", "4", "rates", "--config", str(cfg),
                     "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    capsys.readouterr()


def test_unknown_fit_key_exits_65(tmp_path, capsys):
    cfg = tmp_path / "rates.json"
    for key, value in (("armijo_cc", 0.2), ("fisher", True)):
        cfg.write_text(json.dumps({
            "regime": "matrix", "n_grid": [64, 128], "replicates": 1, "r": 2,
            "truth": {"M": 8, "eigenvalues": [3.0, 1.0]}, "fit": {key: value},
        }))
        assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 65
        assert f"unknown key(s) in 'fit': {key}" in capsys.readouterr().err


def test_bad_fit_grad_tol_exits_65(tmp_path, capsys):
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({
        "regime": "matrix", "n_grid": [64, 128], "replicates": 1, "r": 2,
        "truth": {"M": 8, "eigenvalues": [3.0, 1.0]}, "fit": {"grad_tol": -1},
    }))
    out = tmp_path / "r.csv"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert str(cfg) in err and "grad_tol must be positive and finite" in err
    assert not out.exists()


def test_experiment_config_missing_key_exits_65(tmp_path, capsys):
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({"n_grid": [64], "replicates": 1, "r": 2}))
    for verb in ("rates", "score-check"):
        assert cli.main([verb, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 65
        err = capsys.readouterr().err
        assert str(cfg) in err and "missing key 'regime'" in err


@pytest.mark.parametrize("design, field", [
    ({"replicates": 0}, "replicates"),
    ({"n_grid": []}, "n_grid"),
    ({"n_grid": [64]}, "n_grid"),
    ({"n_grid": [64, 64]}, "n_grid"),
])
def test_empty_experiment_design_exits_65(tmp_path, capsys, design, field):
    # a design with no replicate or fewer than two sample sizes has no slope
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({
        "regime": "matrix", "n_grid": [64, 128], "replicates": 1, "r": 2,
        "truth": {"M": 8, "eigenvalues": [3.0, 1.0]}, **design,
    }))
    out = tmp_path / "r.csv"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert str(cfg) in err and field in err
    assert not out.exists()


def test_fit_without_pairs_exits_65(tmp_path, capsys):
    # every curve has a single observation, so no off-diagonal product exists
    rng = np.random.default_rng(3)
    p = tmp_path / "single.csv"
    rows = [f"c{i},{t:.6f},{v:.6f}" for i, (t, v) in
            enumerate(zip(rng.uniform(0, 1, 200), rng.standard_normal(200)))]
    p.write_text("curve_id,t,y\n" + "\n".join(rows) + "\n")
    assert cli.main(["fit", "--data", str(p), "--M", "4", "--r", "3",
                     "--sigma2", "0.25"]) == 65
    assert "no curve has two or more observations" in capsys.readouterr().err


@pytest.mark.parametrize("verb, design, field", [
    ("simulate", {"m_bounds": [0, 12]}, "m_bounds"),
    ("simulate", {"m_bounds": [5, 3]}, "m_bounds"),
    ("simulate", {"regime": "dense", "m": 0}, "needs m >= 1"),
    ("rates", {"m_bounds": [0, 12]}, "m_bounds"),
    ("rates", {"m_bounds": [-1, 2]}, "m_bounds"),
])
def test_bad_curve_sizes_exit_65(tmp_path, capsys, verb, design, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "regime": "sparse", "n": 4, "n_grid": [16, 32], "replicates": 1, "r": 1,
        "m_bounds": [2, 4], "truth": {"family": "fourier", "eigenvalues": [1.0]}, **design,
    }))
    out = tmp_path / "out.csv"
    assert cli.main([verb, "--config", str(cfg), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert str(cfg) in err and field in err
    assert not out.exists()


def test_kl_scan_verb_and_alpha_guard(tmp_path, cov_file, capsys):
    from remlpc.matrixcase import pca_fit

    _, S = cov_file
    params = tmp_path / "p.json"
    cli.write_params_json(str(params), pca_fit(S, 2))
    out = tmp_path / "scan.csv"
    assert cli.main(["kl-scan", "--params", str(params), "--alphas", "0.001,0.003",
                     "--directions", "20", "--out", str(out)]) == 0
    assert out.exists()
    assert cli.main(["kl-scan", "--params", str(params), "--alphas", "0.5",
                     "--directions", "4", "--out", str(out)]) == 65
    capsys.readouterr()


def test_design_check_verb(tmp_path, capsys):
    out = tmp_path / "design.csv"
    assert cli.main(["design-check", "--M", "6", "--n", "20", "--m", "40",
                     "--r", "2", "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()


def test_design_check_columns_are_the_report_fields(tmp_path, capsys):
    out = tmp_path / "design.csv"
    assert cli.main(["design-check", "--M", "6", "--n", "20", "--m", "40",
                     "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == ("M,n,m,max_dev_full,mean_dev_full,max_dev_frame,"
                      "sup_squared_norm_ratio")
    assert row.startswith("6,20,40,")
    capsys.readouterr()


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test-only dependency: with every scipy import refused, the
    # package still imports, fits curves, certifies a matrix fit against
    # PCA and runs a CLI verb, and no scipy module is ever loaded
    script = textwrap.dedent("""
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"scipy is blocked ({name})")
                return None

        sys.meta_path.insert(0, BlockScipy())

        import numpy as np
        import remlpc
        from remlpc import cli, optimizer, sim
        from remlpc.bspline import make_basis
        from remlpc.matrixcase import reml_equals_pca

        truth = sim.make_true_kernel("fourier", [2.0, 1.0], seed=1)
        data = sim.sample_dataset(truth, "sparse", 200, (3, 200, 0), sigma2=0.25,
                                  m_bounds=(4, 6))
        res = optimizer.fit(data, make_basis(4), 2, 0.25)
        assert res.converged, res.stop_reason

        rng = np.random.default_rng(2)
        B, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        Y = (rng.standard_normal((500, 2)) * np.sqrt([6.0, 3.0])) @ B.T
        Y += rng.standard_normal((500, 8))
        agree = reml_equals_pca(Y.T @ Y / 500, 500, 2)
        assert agree.frame_distance < 1e-6, agree

        assert cli.main(["--quiet", "basis", "--M", "5", "--grid", "11",
                         "--out", sys.argv[1]]) == 0
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "basis.csv"
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
