"""The program names the benchmark tracer wraps must exist with the shape it expects.

``bench/tracing.py`` wraps program functions from outside, by module and
attribute name, and reads a few of their parameters and results. A refactor
that renames or reshapes one of them breaks the traced benchmark; this
checks the names against its ``TARGETS`` without installing the tracer.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

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
