import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhscatter import (
    BandError,
    SiteWindow,
    WaveSample,
    WindowError,
    as_angle,
    energy_from_phi,
    phi_from_energy,
)


class TestAsAngle:
    @pytest.mark.parametrize("phi", [0.0, math.pi, -0.5, 4.0, float("nan"), math.inf, -math.inf])
    def test_rejects_band_edges_and_outside(self, phi):
        with pytest.raises(BandError, match=r"^phi=.* outside the open band interval \(0, pi\)$"):
            as_angle(phi)

    def test_holds_interior_value(self):
        assert as_angle(1.25) == 1.25

    @pytest.mark.parametrize("phi", [1, np.float64(1.25), np.array(1.25)])
    def test_returns_a_float(self, phi):
        p = as_angle(phi)
        assert type(p) is float and p == float(phi)


class TestEnergyConversion:
    def test_midband(self):
        assert energy_from_phi(math.pi / 2, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_scaled_spacing(self):
        assert energy_from_phi(math.pi / 3, 0.5) == pytest.approx(4.0, abs=1e-13)

    def test_band_bottom_positive(self):
        assert 0.0 < energy_from_phi(1e-6, 1.0) < 1e-11

    def test_inverse_midband(self):
        assert phi_from_energy(2.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_inverse_scaled(self):
        assert phi_from_energy(4.0, 0.5) == pytest.approx(math.pi / 3, abs=1e-14)

    @pytest.mark.parametrize("energy,h", [(5.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (4.0, 1.0)])
    def test_out_of_band_rejected(self, energy, h):
        with pytest.raises(BandError):
            phi_from_energy(energy, h)

    def test_bad_spacing_rejected(self):
        with pytest.raises(WindowError):
            energy_from_phi(1.0, 0.0)
        with pytest.raises(WindowError):
            phi_from_energy(1.0, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(phi=st.floats(min_value=0.01, max_value=math.pi - 0.01))
    def test_round_trip(self, phi):
        # E*h^2 quantizes phi no finer than ~eps/(pi - phi) near the band top
        bound = max(1e-14, 8e-16 / (math.pi - phi))
        for h in (1.0, 0.1, 0.01):
            back = phi_from_energy(energy_from_phi(phi, h), h)
            assert abs(back - phi) <= bound

    @pytest.mark.parametrize("phi", [1e-6, 1.0, 2.0, math.pi - 1e-6])
    def test_inverse_returns_a_float(self, phi):
        assert type(phi_from_energy(energy_from_phi(phi))) is float

    def test_round_trip_bulk_tight(self):
        for phi in np.linspace(0.01, 3.0, 997):
            for h in (1.0, 0.1, 0.01):
                back = phi_from_energy(energy_from_phi(phi, h), h)
                assert abs(back - phi) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(
        phi_lo=st.floats(min_value=0.01, max_value=math.pi - 0.02),
        delta=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_energy_increasing(self, phi_lo, delta):
        phi_hi = min(phi_lo + delta, math.pi - 0.01)
        assert energy_from_phi(phi_hi) > energy_from_phi(phi_lo)


class TestWindowAndSample:
    def test_sites(self):
        w = SiteWindow(3)
        assert w.n_sites == 7
        assert list(w.sites) == [-3, -2, -1, 0, 1, 2, 3]

    @pytest.mark.parametrize("half", [0, -2])
    def test_invalid_window(self, half):
        with pytest.raises(WindowError):
            SiteWindow(half)

    def test_site_outside_window(self):
        with pytest.raises(WindowError):
            SiteWindow(2).index_of(3)

    def test_sample_length_checked(self):
        with pytest.raises(WindowError):
            WaveSample(SiteWindow(2), np.ones(4))

    def test_sample_immutable_and_indexed(self):
        sample = WaveSample(SiteWindow(1), np.array([1.0, 2.0, 3.0]))
        assert sample.value_at(-1) == 1.0
        assert sample.value_at(1) == 3.0
        with pytest.raises(ValueError):
            sample.values[0] = 0.0
