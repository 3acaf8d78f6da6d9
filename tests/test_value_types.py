"""The six value types refuse a bad field with a package error that names it.

``Panel.from_arrays``, ``SeedEffects``, ``TruthConfig``, ``FocusConfig``,
``ScenarioConfig`` and ``TruncSpec`` check every field when they are built.
A value of the wrong type, or out of range, is an ``InputError`` whose message
starts with the field's name; no bare ``TypeError``, ``ValueError`` or
``AttributeError`` escapes, whatever the value. A complex column is refused,
not cut to its real part. The public functions that take arrays, a
``Panel`` or a ``FocusConfig`` check them the same way, and the shapes of
arrays that must match.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.errors import BidirMrError, InputError  # noqa: E402
from bidirmr.focusing import Direction, FocusConfig, Method, Panel  # noqa: E402
from bidirmr.focusing import direction_rows, exact_bootstrap_median_sd  # noqa: E402
from bidirmr.focusing import focused_mask, power_forecast, relevant_mask  # noqa: E402
from bidirmr.focusing import test_direction as run_direction_test  # noqa: E402
from bidirmr.focusing import test_joint_null as run_joint_test  # noqa: E402
from bidirmr.model import TruthConfig  # noqa: E402
from bidirmr.simulation import ScenarioConfig, SeedEffects  # noqa: E402
from bidirmr.truncnorm import TruncSpec  # noqa: E402

# Each constructor with a set of fields it accepts.
CONSTRUCTORS = {
    "Panel.from_arrays": (Panel.from_arrays, dict(
        ids=["a", "b"], beta_d=[0.1, -0.2], se_d=[0.1, 0.1], beta_y=[0.0, 0.3], se_y=[0.2, 0.1])),
    "SeedEffects": (SeedEffects, dict(
        alpha_d=[0.1, -0.2], alpha_y=[0.0, 0.3], se_d=[0.1, 0.1], se_y=[0.2, 0.1])),
    "TruthConfig": (TruthConfig, dict(
        pi_d=[0.1, 0.0], pi_y=[0.0, 0.3], beta_dy=0.3, beta_yd=-0.1, se_d=[0.1, 0.1],
        se_y=[0.2, 0.1])),
    "FocusConfig": (FocusConfig, dict(tau_f=1.5, tau_s=None, alpha=0.05)),
    "ScenarioConfig": (ScenarioConfig, dict(
        kappa=1.0, cells=((0.0, 0.0),), n_reps=3, focus=FocusConfig(),
        methods=(Method.FOCUSED_IVW,), rng_seed=0, enforce_separation_c1=None)),
    "TruncSpec": (TruncSpec, dict(lower=-1.0, upper=1.0, mu=0.0)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_the_accepted_fields_build(name):
    build, fields = CONSTRUCTORS[name]
    build(**fields)


@pytest.mark.parametrize(
    "name, bad, field",
    [
        ("ScenarioConfig", {"rng_seed": "3"}, "rng_seed"),
        ("ScenarioConfig", {"rng_seed": -1}, "rng_seed"),
        ("ScenarioConfig", {"focus": {}}, "focus"),
        ("ScenarioConfig", {"enforce_separation_c1": "2"}, "enforce_separation_c1"),
        ("ScenarioConfig", {"methods": None}, "methods"),
        ("FocusConfig", {"tau_f": "1"}, "tau_f"),
        ("FocusConfig", {"alpha": "0.1"}, "alpha"),
        ("FocusConfig", {"tau_s": "1"}, "tau_s"),
        ("SeedEffects", {"alpha_d": "x"}, "alpha_d"),
        ("Panel.from_arrays", {"ids": ["a"], "beta_d": ["x"]}, "beta_d"),
        ("TruncSpec", {"lower": "a", "upper": 1.0}, "lower"),
    ],
)
def test_a_field_of_the_wrong_type_is_an_input_error_naming_it(name, bad, field):
    build, fields = CONSTRUCTORS[name]
    with pytest.raises(InputError, match=f"^{field} must be "):
        build(**{**fields, **bad})


def test_a_complex_column_is_refused_not_cut_to_its_real_part():
    with pytest.raises(InputError, match="^beta_d must be a vector of real numbers, got "):
        Panel.from_arrays(["a", "b"], np.array([1 + 2j, 0.5]), [0.1, 0.1], [0.2, 0.3], [0.1, 0.1])


PANEL = Panel.from_arrays(["a", "b"], [0.5, 0.4], [0.1, 0.1], [0.2, 0.3], [0.1, 0.1])
BOTH = np.array([True, True])
ROWS = (np.full((1, 2), 0.5), np.full(2, 0.1), np.full((1, 2), 0.2), np.full(2, 0.1))
WIDE, NARROW = np.full((1, 3), 0.5), np.full(2, 0.1)


def rows_with(**changed):
    """``direction_rows`` arguments: ``ROWS`` with the named arrays replaced."""
    names = ("exp_beta", "exp_se", "out_beta", "out_se")
    return (*(changed.get(name, value) for name, value in zip(names, ROWS)), FocusConfig(), 0.0)


@pytest.mark.parametrize(
    "call, args, field",
    [
        (power_forecast, (PANEL, BOTH, ["x", 1.0], FocusConfig()), "snr"),
        (power_forecast, (PANEL, BOTH, np.array([1j, 0.0]), FocusConfig()), "snr"),
        (power_forecast, (PANEL, BOTH, [0.0, 0.0], {}), "cfg"),
        (exact_bootstrap_median_sd, (["x"],), "ratios"),
        (exact_bootstrap_median_sd, ([1 + 2j, 3],), "ratios"),
        (run_direction_test, (PANEL, Direction.D_TO_Y, {}), "cfg"),
        (run_joint_test, (PANEL, None), "cfg"),
        (focused_mask, (PANEL, Direction.D_TO_Y, "1.5"), "cfg"),
        (direction_rows, (*ROWS, {}, 0.0), "cfg"),
        (relevant_mask, (None, Direction.D_TO_Y, 1.0), "panel"),
        (focused_mask, ({}, Direction.D_TO_Y, FocusConfig()), "panel"),
        (run_direction_test, ({}, Direction.D_TO_Y, FocusConfig(tau_s=0.0)), "panel"),
        (run_direction_test, ({}, Direction.D_TO_Y, FocusConfig()), "panel"),
        (run_joint_test, ({}, FocusConfig()), "panel"),
        (power_forecast, (None, BOTH, [0.0, 0.0], FocusConfig()), "panel"),
        (power_forecast, (PANEL, [[True], [True, False]], [0.0, 0.0], FocusConfig()),
         "selected"),
        (direction_rows, (WIDE, NARROW, WIDE, WIDE[0], FocusConfig(), 0.0), "exp_se"),
        (direction_rows, (WIDE, WIDE[0], WIDE, NARROW, FocusConfig(), 0.0), "out_se"),
        (direction_rows, (WIDE, WIDE[0], WIDE[:, :2], WIDE[0], FocusConfig(), 0.0), "out_beta"),
        (direction_rows, (WIDE[0], WIDE[0], WIDE[0], WIDE[0], FocusConfig(), 0.0), "exp_beta"),
        (direction_rows, rows_with(exp_beta=np.array([["x", "0.4"]])), "exp_beta"),
        (direction_rows, rows_with(exp_beta=np.array([[0.5 + 1j, 0.4]])), "exp_beta"),
        (direction_rows, rows_with(exp_se=[0.1, -0.1]), "exp_se"),
        (direction_rows, rows_with(out_se=[0.1, 0.0]), "out_se"),
        (direction_rows, rows_with(out_se=[np.inf, 0.1]), "out_se"),
        (direction_rows, rows_with(exp_beta=[[0.5, np.inf]]), "exp_beta"),
        (direction_rows, rows_with(out_beta=[[np.nan, 0.3]]), "out_beta"),
    ],
    ids=["snr-strings", "snr-complex", "power_forecast-cfg", "ratios-strings",
         "ratios-complex", "test_direction-cfg", "test_joint_null-cfg", "focused_mask-cfg",
         "direction_rows-cfg", "relevant_mask-panel", "focused_mask-panel",
         "test_direction-panel", "test_direction-panel-auto-tau_s", "test_joint_null-panel",
         "power_forecast-panel", "power_forecast-ragged-selected", "direction_rows-exp_se",
         "direction_rows-out_se", "direction_rows-out_beta", "direction_rows-1d-exp_beta",
         "direction_rows-strings", "direction_rows-complex", "direction_rows-negative-se",
         "direction_rows-zero-se", "direction_rows-infinite-se", "direction_rows-infinite-beta",
         "direction_rows-nan-beta"],
)
def test_a_public_function_refuses_a_bad_argument_naming_it(call, args, field):
    with pytest.raises(InputError, match=f"^{field} must be "):
        call(*args)


@pytest.mark.parametrize("method", list(Method))
def test_direction_rows_reads_nested_lists_as_the_arrays_they_spell(method):
    lists = direction_rows([[0.5, 0.4]], [0.1, 0.1], [[0.2, 0.3]], [0.1, 0.1], FocusConfig(), 0.0,
                           method)
    arrays = direction_rows(*rows_with(exp_beta=np.array([[0.5, 0.4]]),
                                       out_beta=np.array([[0.2, 0.3]])), method)
    for name in ("selected", "size", "estimate", "se", "z", "p_value", "reject"):
        np.testing.assert_array_equal(getattr(lists, name), getattr(arrays, name), err_msg=name)


# wrong types, NaN, +-inf, negative, empty and 2-D values, and ints too large
# for a float (10**400) or for a repr (10**5000)
BAD = [
    "x", "1", "", None, {}, True, False, math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0,
    [], (), [[1.0, 2.0]], np.zeros((2, 2)), np.array([]), np.float64(math.nan), 10**400,
    -10**5000, [math.nan, 1.0], [-1.0, 1.0], ["x", 1.0], [None, 1.0], [True, 1.0], [{}, 1.0],
    [(0.3, "0")], [(math.inf, 0.0)], [(2.0, 0.5)], [(0.1,)], ["focused_ivw", "focused_ivw"],
]
values = st.one_of(
    st.sampled_from(BAD),
    st.floats(),
    st.integers(),
    st.text(max_size=2),
    st.lists(st.one_of(st.floats(), st.integers(-2, 2), st.sampled_from(BAD[:8])), max_size=3),
)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@settings(deadline=None)
@given(data=st.data())
def test_any_field_values_build_or_raise_a_package_error(name, data):
    build, fields = CONSTRUCTORS[name]
    changed = data.draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, unique=True))
    try:
        build(**{**fields, **{field: data.draw(values, label=field) for field in changed}})
    except BidirMrError:
        pass
