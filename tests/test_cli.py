"""Command-line interface, driven through main() end to end."""

import numpy as np
import pytest

from ibrsmooth.cli import main
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


def test_bench_wendelberger_surface_render(tmp_path, capsys):
    svg = tmp_path / "fit.svg"
    assert main([
        "bench", "wendelberger", "--repeats", "1", "--n-axis", "7",
        "--surface-out", str(svg),
    ]) == 0
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_bench_ozone_missing_data_reports_cleanly(tmp_path, capsys):
    code = main(["bench", "ozone", "--data", str(tmp_path / "ozone.csv")])
    assert code == 2
    assert "fetch_ozone" in capsys.readouterr().err


def test_surface_command(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    lines = ["x,y,value"]
    for yv in (0.0, 1.0, 2.0):
        for xv in (0.0, 0.5, 1.0):
            lines.append(f"{xv},{yv},{xv * yv}")
    grid_path.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "grid.svg"
    assert main([
        "surface", "--in", str(grid_path), "--out", str(out_path),
    ]) == 0
    assert "3 x 3 surface" in capsys.readouterr().out
    assert out_path.exists()
    assert (tmp_path / "grid.txt").exists()


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
    ],
)
def test_bad_flags_exit_2_with_one_error_line(train_csv, capsys, flags, fragment):
    assert main(["fit", "--data", str(train_csv)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert fragment in captured.err


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
