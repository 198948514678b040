"""The one-angle route against the reference copy of its earlier fill (point_reference.py).

solve_numeric, numeric_wave, closed_form and sweeps.evaluate_point under
each method must give the reference's answers byte for byte, signed zeros
included, and refuse where it refuses with its error: at angles within
1e-12 to 1e-3 of the band edges, at |g| up to 1 - 1e-9, at separations
from -1 to MAX_N, for chains of up to 1,000 couplings and for
multi-center layouts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import point_reference as reference
from qhscatter import ChainSpec, MultiCenterSpec, QhScatterError, TwoCenterSpec, closed_form, numeric_wave, solve_numeric
from qhscatter.potentials import MAX_N
from qhscatter.sweeps import evaluate_point

EDGE = st.floats(1e-12, 1e-3)
ANGLES = st.one_of(EDGE, EDGE.map(lambda d: math.pi - d), st.floats(1e-3, math.pi - 1e-3))
G_MAX = 1.0 - 1e-9
COUPLINGS = st.one_of(st.sampled_from([G_MAX, -G_MAX, 1e-9, 0.0]), st.floats(-G_MAX, G_MAX))
SEPARATIONS = st.one_of(st.sampled_from([-1, 0, 1, 2, 7, 50, MAX_N]), st.integers(-1, MAX_N))
# the wave is sampled over every site of the matching radius
WAVE_RADIUS = 2000


def _outcome(route, *args):
    """repr of the route's answer (it shows every bit, signed zeros included), or its error."""
    try:
        return repr(route(*args))
    except QhScatterError as exc:
        return type(exc).__name__, str(exc)


def _wave(route, spec, phi):
    amp, wave = route(spec, phi)
    return amp, wave.window, wave.values.tobytes()


def _assert_is_the_reference(spec, phi):
    assert _outcome(solve_numeric, spec, phi) == _outcome(reference.solve_numeric, spec, phi)
    for method in ("numeric", "closed", "both"):
        assert _outcome(evaluate_point, spec, phi, method) == _outcome(reference.evaluate_point, spec, phi, method)
    if isinstance(spec, TwoCenterSpec):
        assert _outcome(closed_form, spec, phi) == _outcome(reference.closed_form, spec, phi)
    if spec.matching_radius <= WAVE_RADIUS:
        assert _outcome(_wave, numeric_wave, spec, phi) == _outcome(_wave, reference.numeric_wave, spec, phi)


@settings(max_examples=150, deadline=None)
@given(g=COUPLINGS, n=SEPARATIONS, phi=ANGLES)
def test_two_center(g, n, phi):
    _assert_is_the_reference(TwoCenterSpec(g, n), phi)


@settings(max_examples=30, deadline=None)
@given(length=st.one_of(st.integers(1, 6), st.integers(7, 1000)), seed=st.integers(0, 2**32 - 1), phi=ANGLES)
def test_chains(length, seed, phi):
    couplings = np.random.default_rng(seed).uniform(-G_MAX, G_MAX, length).tolist()
    _assert_is_the_reference(ChainSpec(tuple(couplings)), phi)


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(st.integers(2, 30), min_size=0, max_size=3),
    first=st.integers(-40, 40),
    data=st.data(),
    phi=ANGLES,
)
def test_multi_center(gaps, first, data, phi):
    centers = [first]
    for gap in gaps:
        centers.append(centers[-1] + gap)
    couplings = data.draw(st.lists(COUPLINGS, min_size=len(centers), max_size=len(centers)))
    _assert_is_the_reference(MultiCenterSpec(tuple(centers), tuple(couplings)), phi)
