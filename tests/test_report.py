"""Fit report formatting."""

import numpy as np
import pytest

from ibrsmooth import SelectionPlan, fit, format_report


def fitted(plan=None):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 3, size=(45, 1))
    y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.2, 45)
    return fit(x, y, plan=plan)


def test_five_number_summary():
    result = fitted()
    cells = format_report(result).splitlines()[2].split()
    expected = np.percentile(result.residuals, [0, 25, 50, 75, 100])
    assert cells == [f"{v:.6g}" for v in expected]
    assert np.allclose([float(c) for c in cells], expected, rtol=1e-5, atol=1e-6)


def test_report_text_sections():
    result = fitted()
    text = format_report(result)
    assert text.startswith("Residuals:")
    for fragment in (
        "Min", "1Q", "Median", "3Q", "Max",
        "Residual standard error:",
        "degrees of freedom",
        "Initial df:",
        "Final df:",
        "Number of iterations:",
        "chosen by gcv",
        "Base smoother:",
    ):
        assert fragment in text, fragment


def test_fixed_mode_says_so():
    result = fitted(SelectionPlan(mode="fixed", fixed_k=9))
    text = format_report(result)
    assert "Number of iterations: 9 (fixed by the caller)" in text
    assert "chosen by" not in text


def test_exhaustive_mode_is_labelled():
    result = fitted(SelectionPlan(mode="exhaustive"))
    text = format_report(result)
    assert "(exhaustive search)" in text


def test_base_smoother_line_shows_the_spectrum():
    dense = fitted()
    spectral = dense.base.spectral()
    line = format_report(dense).splitlines()[-1]
    # a full spectrum states its floor and how many kept pairs lie below it
    below = int(np.sum(np.abs(spectral.lam) < 45 * np.finfo(float).eps * np.abs(spectral.lam).max()))
    assert 0 < below < 45
    assert line.endswith(f"; spectrum: 45 of 45 eigenpairs, floor {spectral.floor:.2g}, {below} below it")
    # a 300-point gaussian fit keeps only its top eigenpairs, from the factor
    # route, all above the floor
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(300, 1))
    y = np.sin(6 * x[:, 0]) + rng.normal(0, 0.3, 300)
    result = fit(x, y)
    spectral = result.base.spectral()
    assert spectral.rank < 300
    line = format_report(result).splitlines()[-1]
    assert line.endswith(
        f"; spectrum: {spectral.rank} of 300 eigenpairs, floor {spectral.floor:.2g}, "
        f"tail trace <= {spectral.tail_trace:.2g}"
    )
    assert line.startswith("Base smoother: gaussian kernel")
    floor = float(line.split("floor ", 1)[1].split(",")[0])
    assert floor == pytest.approx(300 * np.finfo(float).eps * spectral.lam[0], rel=0.05, abs=0)
    assert float(line.rsplit("<= ", 1)[1]) == pytest.approx(spectral.tail_trace, rel=0.05, abs=0)
