"""The one-angle route at points near the band edges, at |g| -> 1 and out to MAX_N.

closed_form and sweeps.evaluate_point under each method must give the
answers of point_reference.py byte for byte, signed zeros included, and
refuse where it refuses.  solve_numeric refuses no point here: a two-center
point is within 1e-12 of closed_form (itself within 1e-14 of mpmath, see
test_oracle.py), a chain or multi-center point within 1e-12 of mpmath, and
numeric_wave returns solve_numeric's amplitudes with a wave within 1e-12
of the 60-digit wave (relative to its largest value, where that exceeds
1).  The angles lie within 1e-12 to 1e-3 of the band edges or anywhere
between, |g| reaches 1 - 1e-9, separations run from -1 to MAX_N, chains
to 200 couplings.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import point_reference as reference
from qhscatter import (
    ChainSpec,
    MultiCenterSpec,
    QhScatterError,
    TwoCenterSpec,
    closed_form,
    numeric_wave,
    solve_numeric,
)
from qhscatter.potentials import MAX_N
from qhscatter.sweeps import evaluate_point
from test_oracle import _error, mp_amplitudes, mp_wave

EDGE = st.floats(1e-12, 1e-3)
ANGLES = st.one_of(EDGE, EDGE.map(lambda d: math.pi - d), st.floats(1e-3, math.pi - 1e-3))
G_MAX = 1.0 - 1e-9
COUPLINGS = st.one_of(st.sampled_from([G_MAX, -G_MAX, 1e-9, 0.0]), st.floats(-G_MAX, G_MAX))
SEPARATIONS = st.one_of(st.sampled_from([-1, 0, 1, 2, 7, 50, MAX_N]), st.integers(-1, MAX_N))
# the wave is sampled over every site of the matching radius, and checked up to this one
WAVE_RADIUS = 200


def _outcome(route, *args):
    """repr of the route's answer (it shows every bit, signed zeros included), or its error."""
    try:
        return repr(route(*args))
    except QhScatterError as exc:
        return type(exc).__name__, str(exc)


def _assert_point(spec, phi):
    for method in ("numeric", "closed", "both"):
        assert _outcome(evaluate_point, spec, phi, method) == _outcome(reference.evaluate_point, spec, phi, method)
    amp = solve_numeric(spec, phi)
    if isinstance(spec, TwoCenterSpec):
        assert _outcome(closed_form, spec, phi) == _outcome(reference.closed_form, spec, phi)
        ref = closed_form(spec, phi)
        assert max(abs(amp.R - ref.R), abs(amp.T - ref.T)) <= 1e-12
    else:
        assert _error((amp.R, amp.T), mp_amplitudes(spec.bond_map(), phi)) <= 1e-12
    if spec.matching_radius <= WAVE_RADIUS:
        wave_amp, wave = numeric_wave(spec, phi)
        assert (wave_amp.R, wave_amp.T) == (amp.R, amp.T)
        ref = mp_wave(spec.bond_map(), phi, wave.window.sites.tolist())
        assert np.abs(wave.values - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))


@settings(max_examples=150, deadline=None)
@given(g=COUPLINGS, n=SEPARATIONS, phi=ANGLES)
def test_two_center(g, n, phi):
    _assert_point(TwoCenterSpec(g, n), phi)


@settings(max_examples=30, deadline=None)
@given(length=st.one_of(st.integers(1, 6), st.integers(7, 200)), seed=st.integers(0, 2**32 - 1), phi=ANGLES)
def test_chains(length, seed, phi):
    couplings = np.random.default_rng(seed).uniform(-G_MAX, G_MAX, length).tolist()
    _assert_point(ChainSpec(tuple(couplings)), phi)


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
    _assert_point(MultiCenterSpec(tuple(centers), tuple(couplings)), phi)
