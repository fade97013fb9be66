"""The names the per-layer tracer of `perfbench/layers.py` binds must stay.

The tracer wraps every public function of its layer modules, groups some of
them under metric names, and reads a few arguments by parameter name.  A
rename in `ssdkit` would silently zero a metric instead of failing, so this
test reads the tracer's name tables from its source (as literals; perfbench
is not imported) and checks each name against `ssdkit`.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TABLES = ("LAYERS", "NOT_WRAPPED", "METHODS", "GROUPS", "GRID_CONJUGATES")

# the parameters the tracer binds by name, per traced name
BOUND = {
    "spaces.pairwise_sq_dists": ("x_rows", "y_rows"),
    "spaces.pairwise_q": ("x_rows", "y_rows"),
    "spaces.pairwise_g": ("x_rows", "y_rows"),
    "spaces.pairwise_norm": ("x_rows", "y_rows"),
    "gridfn.sup_linear_minus": ("offsets", "targets"),
    "gridfn.min_values_plus_gauge": ("space",),
    "positivity.PointSet.__post_init__": ("self",),
}


def _tables():
    source = LAYERS_PY.read_text(encoding="utf-8")
    out = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in TABLES):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(out) == set(TABLES)
    return out, source


def _traced_names(tables):
    return sorted({*tables["NOT_WRAPPED"], *tables["METHODS"], *tables["GROUPS"],
                   *tables["GRID_CONJUGATES"], *BOUND})


def _resolve(key):
    layer, *path = key.split(".")
    obj = importlib.import_module(f"ssdkit.{layer}")
    for name in path:
        obj = getattr(obj, name)
    return obj


TABLE_DATA, LAYERS_SOURCE = _tables()


@pytest.mark.parametrize("layer", TABLE_DATA["LAYERS"])
def test_layer_module_exists(layer):
    importlib.import_module(f"ssdkit.{layer}")


@pytest.mark.parametrize("key", _traced_names(TABLE_DATA))
def test_traced_name_exists_in_its_layer(key):
    assert key.split(".")[0] in TABLE_DATA["LAYERS"]
    obj = _resolve(key)
    assert inspect.isfunction(obj), key
    if key.count(".") == 1:  # a module function: public and defined in its layer
        assert not key.split(".")[1].startswith("_")
        assert obj.__module__ == f"ssdkit.{key.split('.')[0]}"
    for param in BOUND.get(key, ()):
        assert param in inspect.signature(obj).parameters, (key, param)


def test_every_bound_parameter_is_listed():
    read = set(re.findall(r'bound\["(\w+)"\]', LAYERS_SOURCE))
    assert read and read <= {p for params in BOUND.values() for p in params}
