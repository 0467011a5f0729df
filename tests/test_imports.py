"""A kernel workflow loads numpy alone; scipy comes with the first spline fit.

Each check runs in a fresh interpreter, whose ``sys.modules`` starts with
no scipy in it (this test process has loaded scipy long before).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ibrsmooth import SmootherConfig, fit, save_model

SRC = Path(__file__).resolve().parents[1] / "src"

# every kernel-family layer: calibration, both spectrum routes (a two-column
# factor, three-column dense fits in the walk and the CV folds), the forward
# walk, a 5-fold CV fit, a numeric search on gmdl's slope, the table and
# direct predict routes, model I/O, and predict from a saved two-column
# spline; then a spline fit, which loads scipy
KERNEL_WORKFLOW = """
import sys

import numpy as np

import ibrsmooth as ib

model_dir, spline_model = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(0)
x = rng.uniform(size=(1100, 2))
y = np.sin(6 * x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.1, 1100)
result = ib.fit(x, y)
assert result.base._factor is not None, "the fit left the factor route"
pred = result.predict(rng.uniform(0.1, 0.9, size=(2000, 2)))
assert "table" in vars(result.predictor._tables), "the batch went direct"
direct = ib.KernelPredictor(x, "gaussian", result.predictor.bandwidths, result.predictor.beta[:, None]).predict(x[:5])
assert np.isfinite(pred).all() and np.isfinite(direct).all()

x3 = rng.uniform(size=(200, 4))
y3 = np.sin(6 * x3[:, 0]) + x3[:, 2] + rng.normal(0, 0.2, 200)
assert ib.forward_select(x3, y3).order[0] == 0
cv = ib.SelectionPlan(criterion="rmse", cv=ib.CvPlan(kfold=5))
dense = ib.fit(x3[:, :3], y3, plan=cv)
assert dense.base._factor is None and np.isfinite(dense.k), "the CV fit left the dense route"
assert np.isfinite(ib.fit(x[:600], y[:600], plan=ib.SelectionPlan(criterion="gmdl")).k)

ib.save_model(result, f"{model_dir}/kernel.json")
loaded = ib.load_model(f"{model_dir}/kernel.json")
assert np.array_equal(loaded.predict(x[:300]), result.predict(x[:300]))
assert np.isfinite(ib.load_model(spline_model).predict(x[:50])).all()

loaded_scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded_scipy, loaded_scipy
ib.fit(x[:100], y[:100], smoother=ib.SmootherConfig(family="tps"))
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_a_kernel_workflow_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(60, 2))
    spline = fit(x, np.sin(6 * x[:, 0]) + x[:, 1], smoother=SmootherConfig(family="tps"))
    save_model(spline, tmp_path / "spline.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", KERNEL_WORKFLOW, str(tmp_path), str(tmp_path / "spline.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def _imports(path: Path):
    """(module, name) for every name a source file imports, relative
    imports resolved against the package; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ibrsmooth" if node.level else None, node.module]))
            for alias in node.names:
                # "from . import kernel_smoother" imports a module
                if node.module is None:
                    yield f"{module}.{alias.name}", None
                else:
                    yield module, alias.name


def test_smoother_families_share_no_private_imports():
    """The two families meet in smoothers.py: the spline imports nothing
    from the kernel module or its Chebyshev nodes, and no module of the
    package imports an underscore name from either family's module."""
    modules = sorted((SRC / "ibrsmooth").glob("*.py"))
    assert len(modules) > 10
    private = []
    for path in modules:
        for module, name in _imports(path):
            if path.name == "tps.py":
                assert not module.startswith(("ibrsmooth.kernel_smoother", "ibrsmooth.chebyshev")), (module, name)
            if module in ("ibrsmooth.kernel_smoother", "ibrsmooth.tps") and (name or "").startswith("_"):
                private.append(f"{path.name}: {module}.{name}")
    assert not private, private
