"""The verify suites' worst point: one array rule for every suite.

sweeps._check picks the first NaN or +inf, else the first maximum above 0,
and reads 0 at an empty point when no value is above 0.  The reference is
the scan the suites ran before, kept here: a generator of (value, point)
pairs, where a value is taken when it is not <= the worst so far and a
non-finite one ends the scan.  Both must pick the same value and point on
NaN, +inf, ties, all-zero and empty arrays, in each closed-vs-numeric family,
in the metric suite and in the FAIL lines of `verify --tolerance 1e-16`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhscatter.sweeps as sweeps
from qhscatter import ChainSpec, TwoCenterSpec
from qhscatter.cli import main
from qhscatter.sweeps import SuiteCheck, closed_vs_numeric_suite, metric_suite, suite_scores, unitarity_suite


def scan_check(suite, label, tolerance, scored, point_label=str):
    """The suites' former scan over (value, point) pairs."""
    worst, worst_at = 0.0, None
    for value, point in scored:
        if not value <= worst:
            worst, worst_at = value, point
            if not math.isfinite(value):
                break
    return SuiteCheck(suite, label, worst, tolerance, "" if worst_at is None else point_label(worst_at))


def _point_label(point):
    spec, phi = point
    return f"g={spec.g} N={spec.N} phi={phi:.6f}"


def reference_unitarity(scores, tolerance):
    """The former unitarity_suite over the former (spec, phi, numeric, closed, gap_R, gap_T) rows."""
    rows = _rows(scores)
    numeric = ((d_n, (spec, phi)) for spec, phi, d_n, *_ in rows)
    closed = ((d_c, (spec, phi)) for spec, phi, _, d_c, _, _ in rows)
    return [
        scan_check("unitarity", "numeric", tolerance, numeric, _point_label),
        scan_check("unitarity", "closed", tolerance, closed, _point_label),
    ]


def reference_closed_vs_numeric(scores, tolerance):
    rows = _rows(scores)

    def gaps(key):
        for spec, phi, _, _, gap_R, gap_T in rows:
            family = "N=-1" if spec.N == -1 else ("N=0" if spec.N == 0 else "N>=1")
            if family == key:
                yield gap_R, (spec, phi)
                yield gap_T, (spec, phi)

    return [scan_check("closed-vs-numeric", key, tolerance, gaps(key), _point_label) for key in ("N=-1", "N=0", "N>=1")]


def _rows(scores):
    count = len(scores.phis)
    values = zip(*(a.tolist() for a in scores[2:]))
    return [(scores.specs[i // count], scores.phis.tolist()[i % count], *v) for i, v in enumerate(values)]


def _same(got, expected):
    # repr compares a NaN maximum as well
    assert [repr(c) for c in got] == [repr(c) for c in expected]


VALUES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1e-12, 3e-11, 3e-11, math.nan, math.inf, -math.inf, -1.0]),
        st.floats(0.0, 1e-9),
    ),
    max_size=30,
)


class TestArrayRuleIsTheScan:
    @settings(max_examples=400, deadline=None)
    @given(values=VALUES)
    def test_any_values(self, values):
        got = sweeps._check("s", "l", 1e-11, values, str)
        expected = scan_check("s", "l", 1e-11, zip(values, range(len(values))))
        assert repr(got) == repr(expected)
        assert type(got.max_value) is float

    @pytest.mark.parametrize(
        "values, worst, at",
        [
            ([1e-12, math.nan, 2e-12, math.inf], math.nan, "1"),
            ([3e-12, math.inf, math.nan], math.inf, "1"),
            ([1e-12, 5e-12, 5e-12, 2e-12], 5e-12, "1"),
            ([5e-12, 1e-12, 5e-12], 5e-12, "0"),
            ([0.0, 0.0, -0.0], 0.0, ""),
            ([], 0.0, ""),
            ([-math.inf, 0.0], 0.0, ""),
        ],
        ids=["nan-first", "inf-first", "tie", "tie-at-start", "all-zero", "empty", "minus-inf"],
    )
    def test_cases(self, values, worst, at):
        got = sweeps._check("s", "l", 1e-11, values, str)
        assert repr((got.max_value, got.worst_point)) == repr((worst, at))
        assert repr(got) == repr(scan_check("s", "l", 1e-11, zip(values, range(len(values)))))


@pytest.fixture(scope="module")
def scores():
    return suite_scores()


def _with(scores, name, changes):
    """scores with the array name changed at each (point, value) of changes."""
    values = getattr(scores, name).copy()
    for point, value in changes:
        values[point] = value
    return scores._replace(**{name: values})


class TestSuitesAreTheScan:
    def test_default_grid(self, scores):
        assert len(scores.numeric_defect) == len(scores.gap_T) == 3200
        _same(unitarity_suite(scores, 1e-11), reference_unitarity(scores, 1e-11))
        _same(closed_vs_numeric_suite(scores, 1e-10), reference_closed_vs_numeric(scores, 1e-10))

    # point 0 is N = -1, point 40 N = 0 and point 80 N = 1 (g = -0.9); 3199 is g = 0.9, N = 50
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["numeric_defect", "closed_defect", "gap_R", "gap_T"]),
        changes=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 39, 40, 41, 79, 80, 81, 319, 320, 1234, 3199]),
                st.sampled_from([math.nan, math.inf, 1.0, 1e-9, 0.0]),
            ),
            max_size=4,
        ),
    )
    def test_each_family_with_nan_inf_and_ties(self, scores, name, changes):
        changed = _with(scores, name, changes)
        _same(unitarity_suite(changed, 1e-11), reference_unitarity(changed, 1e-11))
        _same(closed_vs_numeric_suite(changed, 1e-10), reference_closed_vs_numeric(changed, 1e-10))

    def test_all_zero(self, scores):
        zero = scores._replace(**{k: np.zeros(3200) for k in ("numeric_defect", "closed_defect", "gap_R", "gap_T")})
        checks = unitarity_suite(zero, 1e-11) + closed_vs_numeric_suite(zero, 1e-10)
        assert [(c.max_value, c.worst_point) for c in checks] == [(0.0, "")] * 5
        _same(checks, reference_unitarity(zero, 1e-11) + reference_closed_vs_numeric(zero, 1e-10))

    def test_impossible_tolerance_keeps_its_worst_points(self, scores, capsys):
        assert main(["verify", "--tolerance", "1e-16"]) == 1
        lines = capsys.readouterr().out.splitlines()
        expected = (
            reference_metric()
            + reference_unitarity(scores, 1e-16)
            + reference_closed_vs_numeric(scores, 1e-16)
        )
        assert [line.split(" worst=")[1] for line in lines] == [
            f"[{c.worst_point}] {'PASS' if c.passed else 'FAIL'}" for c in expected
        ]
        assert sum(line.endswith("FAIL") for line in lines) >= 5


def reference_metric(chain_specs=sweeps.DEFAULT_CHAIN_SPECS):
    """The former metric_suite's two checks, both at tolerance 1e-16."""
    two_center = (
        (sweeps._metric_residual(TwoCenterSpec(g, n)), f"g={g} N={n}")
        for g in sweeps.DEFAULT_G_GRID
        for n in sweeps.DEFAULT_N_GRID
    )
    chains = ((sweeps._metric_residual(ChainSpec(tuple(cs))), sweeps._chain_label(tuple(cs))) for cs in chain_specs)
    return [
        scan_check("metric", "two-center", 1e-16, two_center),
        scan_check("metric", "chain", 1e-16, chains),
    ]


class TestMetricSuite:
    def test_default_grids(self):
        got = metric_suite(1e-16, 1e-16)
        _same(got, reference_metric())

    def test_a_chain_past_the_double_range(self):
        # the 1,000-coupling chain's residual is not finite: the scan stopped there and never read the chains after it
        chains = ((0.5, 0.3), (0.5,) * 1000, (0.4,), (0.9,) * 2000)
        got = metric_suite(1e-16, 1e-16, g_grid=(), n_grid=(), chain_specs=chains)
        _same(got, reference_metric(chains)[1:])
        assert math.isnan(got[0].max_value) and got[0].worst_point.endswith("length=1000")
