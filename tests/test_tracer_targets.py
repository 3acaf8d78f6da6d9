"""The program names the benchmark tracer wraps must exist with the shape it expects.

``bench/tracing.py`` wraps program functions from outside, by module and
attribute name, and reads a few of their parameters and results. A refactor
that renames or reshapes one of them breaks the traced benchmark; this
checks the names against its ``TARGETS`` without installing the tracer, and
runs each count factory on a real call, so a count keeps its meaning (rows
stay rows, not columns).
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name, attr", [(t[1], t[2]) for t in TARGETS])
def test_every_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_panel_from_arrays_is_a_classmethod():
    from bidirmr.focusing import Panel

    assert isinstance(Panel.__dict__["from_arrays"], classmethod)


def test_counted_parameters_and_fields_exist():
    from bidirmr.focusing import TestReport, bootstrap_median_sd

    parameters = inspect.signature(bootstrap_median_sd).parameters
    assert "ratios" in parameters and "n_boot" in parameters
    assert "focused_size" in {f.name for f in dataclasses.fields(TestReport)}


COUNTED = {name: (module_name, attr, factory) for name, module_name, attr, factory in TARGETS
           if factory is not None}


def _function(module_name, attr):
    """The function the tracer wraps, as ``Tracer.install`` finds it."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        raw = vars(getattr(module, cls_name))[method]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, attr)


def _calls(tmp_path):
    """Per counted span: a real call's arguments and the count it must give."""
    from bidirmr.focusing import Direction, FocusConfig, Panel
    from bidirmr.gwasio import ColumnTable, load_gwas

    exposure, outcome = tmp_path / "exposure.tsv", tmp_path / "outcome.tsv"
    exposure.write_text("id\tbeta\tse\nrs1\t0.1\t0.05\nrs2\t0.2\t0.05\nrs3\t0.3\t0.05\n")
    outcome.write_text("id\tbeta\tse\nrs2\t0.1\t0.05\nrs3\t0.2\t0.05\nrs4\t0.3\t0.05\n")
    # |beta_y| <= 1.5 se_y holds for a and b only
    panel = Panel.from_arrays(["a", "b", "c"], [0.5, 0.6, 0.7], [0.1] * 3, [0.0, 0.1, 1.0],
                              [0.1] * 3)
    three_rows = ColumnTable([np.arange(3.0), ["x", "y", "z"]])
    return {
        "gwasio.load_gwas": ((str(exposure),), {}, 3),
        "gwasio.harmonize": ((load_gwas(str(exposure)), load_gwas(str(outcome))), {}, [2, 3]),
        "gwasio.write_tsv_rows": ((str(tmp_path / "t.tsv"), ["u", "v"], three_rows), {}, 3),
        "focusing.test_direction": ((panel, Direction.D_TO_Y, FocusConfig(tau_s=0.0)), {}, 2),
        "focusing.bootstrap_median_sd": (
            (np.array([0.1, 0.4, 0.2, 0.9, 0.5]), np.random.default_rng(0)), {"n_boot": 7}, 35),
        "focusing.Panel.indices_of": ((panel, ["c", "a"]), {}, 2),
    }


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_every_count_reads_what_it_names(tmp_path, name):
    module_name, attr, factory = COUNTED[name]
    fn = _function(module_name, attr)
    args, kwargs, want = _calls(tmp_path)[name]
    result = fn(*args, **kwargs)
    assert factory(fn)(args, kwargs, result) == want
