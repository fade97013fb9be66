import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "grid_convergence.py"


def test_residuals_scale_like_h_squared_and_distance_error_shrinks():
    spec = importlib.util.spec_from_file_location("grid_convergence", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    h, vz, ident, dist = np.array(mod.sweep(sizes=(21, 31, 41))).T
    assert np.all(np.diff(h) < 0)
    for residual in (vz, ident):
        per_h2 = residual / h ** 2
        assert np.max(per_h2) <= 1.1 * np.min(per_h2)
    assert np.all(np.diff(dist) < 0)
