"""Property tests of the direction swap and of selection masks.

Testing Y -> D on a panel is testing D -> Y on the role-swapped panel (the
two traits' columns exchanged): every estimator must give the same report,
apart from its direction, the same selection and the same error. And the ids a report's selection stands for, as the ``test``
command writes them, are the panel ids at its mask, in panel order, where
the mask follows the selection rule SNP by SNP.
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.benchmarks import mr_egger, mr_median, overall_ivw  # noqa: E402
from bidirmr.cli import _run_estimator  # noqa: E402
from bidirmr.errors import BidirMrError  # noqa: E402
from bidirmr.focusing import (  # noqa: E402
    Direction,
    Estimator,
    FocusConfig,
    Panel,
    TauSRule,
)
from bidirmr.focusing import test_direction as run_direction_test  # noqa: E402

DY, YD = Direction.D_TO_Y, Direction.Y_TO_D

betas = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
ses = st.floats(0.01, 2.0)


@st.composite
def panels(draw):
    p = draw(st.integers(1, 25))
    order = draw(st.permutations(range(p)))
    columns = [draw(st.lists(strategy, min_size=p, max_size=p))
               for strategy in (betas, ses, betas, ses)]
    return Panel.from_arrays([f"v{j}" for j in order], *columns)


configs = st.builds(
    lambda tau_f, tau_s, alpha: FocusConfig(
        tau_f=tau_f, tau_s=tau_s, alpha=alpha, tau_s_rule=TauSRule.EXPLICIT),
    st.one_of(st.just(math.inf), st.floats(0.2, 4.0)),
    st.floats(0.0, 3.0),
    st.floats(0.01, 0.5),
)


def swapped(panel: Panel) -> Panel:
    return Panel.from_arrays(panel.ids, panel.beta_y, panel.se_y, panel.beta_d, panel.se_d)


def outcome(run):
    """The report with its selection mask as a list, or the error's class and message."""
    try:
        report = run()
    except BidirMrError as exc:
        return type(exc), str(exc)
    return replace(report, direction=DY), report.selected.tolist()


def method_runs(cfg: FocusConfig):
    """Every estimator as a function of (panel, direction)."""
    def focused(estimator):
        return lambda panel, d: run_direction_test(panel, d, cfg, estimator)
    return {
        "focused_ivw": focused(Estimator.FOCUSED_IVW),
        "focused_median": focused(Estimator.FOCUSED_MEDIAN),
        "overall_ivw": lambda panel, d: overall_ivw(panel, d, cfg.tau_s),
        "mr_median": lambda panel, d: mr_median(panel, d, cfg.tau_s),
        "mr_egger": lambda panel, d: mr_egger(panel, d, cfg.tau_s),
    }


@settings(max_examples=150, deadline=None)
@given(panels(), configs)
def test_yd_on_panel_equals_dy_on_swapped_panel(panel, cfg):
    swap = swapped(panel)
    for name, run in method_runs(cfg).items():
        assert outcome(lambda: run(panel, YD)) == outcome(lambda: run(swap, DY)), name
        # and the swap is an involution: D -> Y on the panel is Y -> D on the swap
        assert outcome(lambda: run(panel, DY)) == outcome(lambda: run(swap, YD)), name


def expected_mask(panel, direction, cfg, focused):
    """The selection rule SNP by SNP, in plain Python."""
    if direction is DY:
        cols = (panel.beta_d, panel.se_d, panel.beta_y, panel.se_y)
    else:
        cols = (panel.beta_y, panel.se_y, panel.beta_d, panel.se_d)
    keep = []
    for eb, es, ob, os_ in zip(*(c.tolist() for c in cols)):
        relevant = abs(eb) >= es * cfg.tau_s
        if focused:
            keep.append(relevant and abs(ob) <= os_ * cfg.tau_f and eb != 0.0)
        else:
            keep.append(relevant)
    return keep


@settings(max_examples=150, deadline=None)
@given(panels(), configs)
def test_reported_ids_are_panel_ids_at_the_mask(panel, cfg):
    for name, run in method_runs(cfg).items():
        for direction in (DY, YD):
            try:
                report = run(panel, direction)
            except BidirMrError:
                continue
            keep = expected_mask(panel, direction, cfg, name.startswith("focused"))
            assert report.selected.tolist() == keep, name
            ids = [i for i, k in zip(panel.ids, keep) if k]
            assert list(panel.ids_at(report.selected)) == ids
            if name.startswith("focused"):
                assert report.focused_size == len(ids)


@settings(max_examples=60, deadline=None)
@given(panels(), configs)
def test_cli_rows_list_the_ids_at_the_mask(panel, cfg):
    for name in ("ivw", "median", "overall-ivw", "mr-median", "mr-egger"):
        focused = name in ("ivw", "median")
        for direction in (DY, YD):
            try:
                row = _run_estimator(panel, direction, cfg, name)
            except BidirMrError:
                continue
            keep = expected_mask(panel, direction, cfg, focused)
            assert row["selected_ids"] == [i for i, k in zip(panel.ids, keep) if k], name
            assert row["n_selected"] == sum(keep)
