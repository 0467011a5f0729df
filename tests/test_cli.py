"""Command-line interface, driven through main() end to end."""

import numpy as np
import pytest

from ibrsmooth import CvPlan, SelectionPlan, SmootherConfig, fitting
from ibrsmooth.cli import _selection_plan, build_parser, main
from ibrsmooth.data import load_csv

from test_model_io import BAD_FILES, write_bad_model


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(0)
    x1 = rng.uniform(0, 3, 50)
    x2 = rng.uniform(-1, 1, 50)
    y = np.sin(2 * x1) + 0.3 * x2 + rng.normal(0, 0.2, 50)
    path = tmp_path / "train.csv"
    lines = ["y,x1,x2"] + [
        f"{yi},{a},{b}" for yi, a, b in zip(y, x1, x2)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_prints_report(train_csv, capsys):
    assert main(["fit", "--data", str(train_csv)]) == 0
    out = capsys.readouterr().out
    assert "Residuals:" in out
    assert "Number of iterations:" in out
    assert "chosen by gcv" in out
    assert "Base smoother:" in out


def test_fit_fixed_iterations(train_csv, capsys):
    assert main(["fit", "--data", str(train_csv), "--iter", "12"]) == 0
    out = capsys.readouterr().out
    assert "Number of iterations: 12 (fixed by the caller)" in out


def test_fit_tps_exhaustive(train_csv, capsys):
    code = main([
        "fit", "--data", str(train_csv),
        "--smoother", "tps", "--exhaustive", "--criterion", "aicc",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen by aicc (exhaustive search)" in out
    assert "thin plate spline" in out


def test_fit_save_then_predict(train_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main([
        "fit", "--data", str(train_csv), "--out", str(model_path),
    ]) == 0
    assert model_path.exists()

    new_path = tmp_path / "new.csv"
    # columns deliberately reordered plus an extra one to be ignored
    new_path.write_text("extra,x2,x1\n0,0.5,1.0\n0,-0.5,2.0\n")
    pred_path = tmp_path / "preds.csv"
    assert main([
        "predict", "--model", str(model_path),
        "--data", str(new_path), "--out", str(pred_path),
    ]) == 0
    preds = load_csv(pred_path)
    assert preds.names == ["prediction"]
    assert preds.n == 2
    assert np.isfinite(preds.values).all()


def test_predict_reads_columns_by_name(train_csv, tmp_path):
    """Training columns reordered, plus one the model does not read, give
    the bytes of the training-order file."""
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(train_csv), "--out", str(model_path)]) == 0
    rows = np.random.default_rng(3).uniform(-1, 3, size=(7, 2)).tolist()
    ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
    ordered.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    shuffled.write_text("x2,extra,x1\n" + "".join(f"{b!r},9.5,{a!r}\n" for a, b in rows))
    outputs = []
    for data in (ordered, shuffled):
        out = tmp_path / f"{data.stem}-pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert load_csv(tmp_path / "ordered-pred.csv").n == 7


def test_predict_missing_column_fails(train_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["fit", "--data", str(train_csv), "--out", str(model_path)])
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("x1\n1.0\n")
    code = main([
        "predict", "--model", str(model_path),
        "--data", str(bad), "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2
    assert "x2" in capsys.readouterr().err


@pytest.mark.parametrize("family, field, how", BAD_FILES)
def test_predict_with_bad_model_file_exits_2(tmp_path, capsys, family, field, how):
    model_path = write_bad_model(tmp_path, family, field, how)
    new_path = tmp_path / "new.csv"
    new_path.write_text("left,right\n1.0,2.0\n")
    code = main([
        "predict", "--model", str(model_path),
        "--data", str(new_path), "--out", str(tmp_path / "p.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert field in err


def test_forward_lists_selection(train_csv, tmp_path, capsys):
    score_path = tmp_path / "scores.csv"
    assert main([
        "forward", "--data", str(train_csv), "--out", str(score_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Selected columns (in order): 1" in out
    assert "x1" in out
    assert score_path.exists()
    text = score_path.read_text()
    assert text.startswith("stage,x1,x2")
    assert "order" in text


def test_bench_wendelberger(capsys):
    assert main([
        "bench", "wendelberger", "--repeats", "2", "--n-axis", "8",
    ]) == 0
    out = capsys.readouterr().out
    per_seed = [line for line in out.splitlines() if line.startswith("seed")]
    assert len(per_seed) == 2
    assert all("mae" in line for line in per_seed)
    assert "over 2 seeds" in out


def test_bench_ozone_missing_data_reports_cleanly(tmp_path, capsys):
    code = main(["bench", "ozone", "--data", str(tmp_path / "ozone.csv")])
    assert code == 2
    assert "fetch_ozone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["bench", "wendelberger", "--repeats", "0"], "--repeats"),
        (["bench", "wendelberger", "--repeats", "-3"], "--repeats"),
        (["bench", "wendelberger", "--repeats", "two"], "--repeats"),
        (["bench", "ozone", "--repeats", "-1"], "--repeats"),
        # the SVG renderer left the package with its two entry points
        (["surface", "--in", "g.csv", "--out", "g.svg"], "invalid choice"),
        (["bench", "wendelberger", "--surface-out", "x.svg"], "unrecognized arguments"),
    ],
)
def test_bad_bench_arguments_exit_2_before_any_data_is_read(tmp_path, monkeypatch, capsys, argv, fragment):
    # the ozone row's default --data path does not exist in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert fragment in captured.err
    assert "fetch_ozone" not in captured.err


def test_cli_reports_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,x\n1,oops\n")
    assert main(["fit", "--data", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cv_criterion_via_flags(train_csv, capsys):
    code = main([
        "fit", "--data", str(train_csv),
        "--criterion", "rmse", "--cv-kfold", "5", "--cv-type", "consecutive",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen by rmse" in out


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--kmin", "0"], "kmin"),
        (["--df", "-2"], "df target"),
        (["--smoother", "tps", "--df", "-2"], "df multiplier"),
        (["--kernel", "z"], "--kernel"),
        (["--cv-kfold", "1"], "--cv-kfold"),
        (["--cv-kfold", "1", "--criterion", "rmse"], "--cv-kfold"),
        (["--cv-kfold", "two"], "--cv-kfold"),
        (["--kmax", "inf", "--exhaustive"], "kmax must be a finite number"),
        (["--dfmaxi", "nan"], "dfmaxi must be a positive number, got nan"),
        (["--smoother", "tps", "--dftotal"], "SmootherConfig.dftotal = True is not read"),
        # flags the plan would not read, which used to be dropped silently
        (["--cv-kfold", "4"], "a cv plan needs a cross-validated loss"),
        (["--iter", "5", "--cv-kfold", "4"], "is read only with mode='numeric' or 'exhaustive'"),
        (["--criterion", "rmse", "--cv-kfold", "4", "--cv-ntest", "3"],
         "CvPlan.ntest = 3 is not read with kfold = 4"),
        (["--iter", "5", "--exhaustive"], "not allowed with argument"),
        (["--iter", "5", "--criterion", "aicc"], "reads no --criterion"),
        (["--iter", "5", "--kmin", "2"], "reads no --kmin"),
        (["--iter", "5", "--kmax", "10"], "reads no --kmax"),
        (["--iter", "5", "--dfmaxi", "30"], "reads no --dfmaxi"),
    ],
)
def test_bad_flags_exit_2_with_one_error_line(train_csv, capsys, flags, fragment):
    assert main(["fit", "--data", str(train_csv)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert fragment in captured.err


@pytest.mark.parametrize("flags", [["--kmax", "inf", "--exhaustive"], ["--dfmaxi", "nan"]])
def test_bad_plan_flags_are_refused_before_calibration(train_csv, capsys, monkeypatch, flags):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before refusing the plan")

    monkeypatch.setattr(fitting, "calibrate_bandwidth", no_calibration)
    assert main(["fit", "--data", str(train_csv)] + flags) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty file"),
        ("y,x1,x2\n1,2,3\n4,5\n", "row 3 has 2 cells"),
    ],
)
def test_bad_csv_exits_2_with_one_error_line(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["fit", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert fragment in err


def test_missing_subcommand_exits_2_with_one_error_line(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "required" in err


def test_constant_response_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("y,x\n" + "".join(f"3.0,{i}\n" for i in range(12)))
    assert main(["fit", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "y is constant" in err


@pytest.mark.parametrize(
    "argv", [["fit", "--data", "x.csv"], ["forward", "--data", "x.csv"], ["bench", "wendelberger"]]
)
def test_flag_defaults_are_the_config_defaults(argv):
    """A changed library default reaches the CLI: df, kmin, kmax and the
    split count are read from the config dataclasses."""
    args = build_parser().parse_args(argv)
    assert args.df == SmootherConfig.df
    plan = _selection_plan(args)
    assert (plan.kmin, plan.kmax) == (SelectionPlan.kmin, SelectionPlan.kmax)
    assert args.cv_npermut == CvPlan.npermut
