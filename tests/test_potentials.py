import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhscatter import (
    ChainSpec,
    MultiCenterSpec,
    PositivityError,
    SiteWindow,
    TwoCenterSpec,
    WindowError,
    assemble_hamiltonian,
    build_laplacian,
    build_potential,
)
from qhscatter.potentials import MAX_N

couplings_in_band = st.floats(min_value=-0.9, max_value=0.9)


def element(op):
    """The matrix element between sites i and j of a banded operator, read from its dense form."""
    dense, w = op.to_dense(), op.window
    return lambda i, j: dense[w.index_of(i), w.index_of(j)]


class TestLaplacian:
    def test_smallest_window_matrix(self):
        lap = build_laplacian(SiteWindow(1)).to_dense()
        expected = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=complex)
        assert np.array_equal(lap, expected)

    def test_hermitian(self):
        lap = build_laplacian(SiteWindow(6)).to_dense()
        assert np.array_equal(lap, lap.conj().T)

    def test_truncated_spectrum(self):
        eigs = np.sort(np.linalg.eigvalsh(build_laplacian(SiteWindow(1)).to_dense().real))
        assert np.allclose(eigs, [2 - math.sqrt(2), 2, 2 + math.sqrt(2)], atol=1e-14)


class TestChainPotential:
    def test_single_coupling_entries(self):
        v = build_potential(ChainSpec((0.7,)), SiteWindow(2))
        dense = v.to_dense()
        w = v.window
        assert dense[w.index_of(0), w.index_of(-1)] == 0.7
        assert dense[w.index_of(-1), w.index_of(0)] == -0.7
        dense[w.index_of(0), w.index_of(-1)] = 0
        dense[w.index_of(-1), w.index_of(0)] = 0
        assert np.all(dense == 0)

    def test_two_couplings_layout(self):
        v = element(build_potential(ChainSpec((0.5, 0.25)), SiteWindow(3)))
        # central bond carries a, both neighbors carry b
        assert v(0, -1) == 0.5 and v(-1, 0) == -0.5
        assert v(1, 0) == 0.25 and v(0, 1) == -0.25
        assert v(-1, -2) == 0.25 and v(-2, -1) == -0.25

    def test_zero_couplings_zero_operator(self):
        v = build_potential(ChainSpec((0.0, 0.0)), SiteWindow(4))
        assert np.all(v.to_dense() == 0)

    @settings(max_examples=60, deadline=None)
    @given(cs=st.lists(couplings_in_band, min_size=1, max_size=4))
    def test_antisymmetric(self, cs):
        v = build_potential(ChainSpec(tuple(cs)), SiteWindow(len(cs) + 2)).to_dense()
        assert np.array_equal(v.T, -v)
        assert np.all(v.imag == 0)
        assert np.all(np.diag(v) == 0)

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            build_potential(ChainSpec((0.1, 0.2, 0.3)), SiteWindow(3))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5])
    def test_coupling_out_of_range(self, bad):
        with pytest.raises(PositivityError):
            ChainSpec((bad,))

    def test_empty_chain_rejected(self):
        with pytest.raises(PositivityError):
            ChainSpec(())


class TestTwoCenterPotential:
    def test_block_entries_match_matching_rows(self):
        # H rows at a block center read (-1+g, 2cos phi, -1+g); adjacent rows carry -1-g
        g = 0.4
        spec = TwoCenterSpec(g, 0)
        h = element(assemble_hamiltonian(build_potential(spec, SiteWindow(5))))
        for c in (-2, 2):
            assert h(c, c - 1) == pytest.approx(-1 + g)
            assert h(c, c + 1) == pytest.approx(-1 + g)
            assert h(c - 1, c) == pytest.approx(-1 - g)
            assert h(c + 1, c) == pytest.approx(-1 - g)

    def test_merged_blocks_reproduce_five_row_pattern(self):
        # N = -1: overlapping blocks at +-1; alternating -1+g / -1-g rows around the origin
        g = 0.3
        h = element(assemble_hamiltonian(build_potential(TwoCenterSpec(g, -1), SiteWindow(4))))
        assert h(-2, -1) == pytest.approx(-1 - g)
        assert h(-1, -2) == pytest.approx(-1 + g)
        assert h(-1, 0) == pytest.approx(-1 + g)
        assert h(0, -1) == pytest.approx(-1 - g)
        assert h(0, 1) == pytest.approx(-1 - g)
        assert h(1, 0) == pytest.approx(-1 + g)
        assert h(1, 2) == pytest.approx(-1 + g)
        assert h(2, 1) == pytest.approx(-1 - g)
        assert h(-3, -2) == -1.0 and h(3, 2) == -1.0

    def test_zero_coupling(self):
        v = build_potential(TwoCenterSpec(0.0, 2), SiteWindow(8))
        assert np.all(v.to_dense() == 0)

    @settings(max_examples=60, deadline=None)
    @given(g=couplings_in_band, n=st.integers(min_value=0, max_value=6))
    def test_disjoint_blocks_and_sign_flip_transposes(self, g, n):
        w = SiteWindow(n + 5)
        v_plus = build_potential(TwoCenterSpec(g, n), w).to_dense()
        v_minus = build_potential(TwoCenterSpec(-g, n), w).to_dense()
        assert np.array_equal(v_minus, v_plus.T)
        # support confined to the two blocks
        for i, ki in enumerate(w.sites):
            for j, kj in enumerate(w.sites):
                if v_plus[i, j] != 0:
                    assert abs(ki) in (n + 1, n + 2, n + 3)
                    assert abs(kj) in (n + 1, n + 2, n + 3)
                    assert abs(ki - kj) == 1

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            build_potential(TwoCenterSpec(0.5, 2), SiteWindow(5))

    def test_invalid_parameters(self):
        with pytest.raises(PositivityError):
            TwoCenterSpec(1.0, 0)
        with pytest.raises(ValueError):
            TwoCenterSpec(0.5, -2)


class TestTwoCenterIsTheTwoBlockMultiCenter:
    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        n=st.sampled_from([-1, 0, 1, 10**9, MAX_N]),
    )
    def test_layout_of_two_blocks(self, g, n):
        spec = TwoCenterSpec(g, n)
        multi = MultiCenterSpec((-n - 2, n + 2), (g, g))
        assert isinstance(spec, MultiCenterSpec)
        assert spec.bond_map() == multi.bond_map()
        assert spec.matching_radius == multi.matching_radius == n + 3
        assert (spec.centers, spec.couplings) == (multi.centers, multi.couplings)
        assert (spec.g, spec.N) == (g, n)
        # equal layouts of the two classes stay unequal, so tables keep their labels
        assert spec != multi and multi != spec
        assert spec == TwoCenterSpec(g, n) and hash(spec) == hash(TwoCenterSpec(g, n))
        assert repr(spec) == f"TwoCenterSpec(g={g!r}, N={n!r})"

    def test_read_only(self):
        spec = TwoCenterSpec(0.5, 2)
        for name, value in (("g", 0.1), ("N", 3), ("centers", (-1, 1)), ("couplings", (0.1, 0.1))):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        assert repr(spec) == "TwoCenterSpec(g=0.5, N=2)"

    @pytest.mark.parametrize("n", [-2, 1.5, MAX_N + 1])
    def test_separation_outside_its_range(self, n):
        with pytest.raises(ValueError, match=re.escape(f"N={n!r} must be an integer in [-1, {MAX_N}]")):
            TwoCenterSpec(0.5, n)

    @pytest.mark.parametrize("g", [1.0, -1.0])
    def test_coupling_on_the_positivity_boundary(self, g):
        with pytest.raises(PositivityError, match=re.escape(f"g={g!r} outside the open interval (-1, 1)")):
            TwoCenterSpec(g, 0)


class TestMultiCenter:
    def test_matches_two_center(self):
        w = SiteWindow(7)
        a = build_potential(TwoCenterSpec(0.6, 1), w).to_dense()
        b = build_potential(MultiCenterSpec((-3, 3), (0.6, 0.6)), w).to_dense()
        assert np.array_equal(a, b)

    def test_merged_matches_n_minus_one(self):
        w = SiteWindow(4)
        a = build_potential(TwoCenterSpec(0.6, -1), w).to_dense()
        b = build_potential(MultiCenterSpec((-1, 1), (0.6, 0.6)), w).to_dense()
        assert np.array_equal(a, b)

    def test_three_centers_disjoint_entries(self):
        spec = MultiCenterSpec((-6, 0, 5), (0.2, -0.4, 0.6))
        v = element(build_potential(spec, SiteWindow(9)))
        for c, g in zip(spec.centers, spec.couplings):
            assert v(c - 1, c) == pytest.approx(-g)
            assert v(c, c - 1) == pytest.approx(g)
            assert v(c, c + 1) == pytest.approx(g)
            assert v(c + 1, c) == pytest.approx(-g)

    def test_too_close_rejected(self):
        with pytest.raises(ValueError):
            MultiCenterSpec((0, 1), (0.5, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiCenterSpec((0, 4), (0.5,))


class TestAssembly:
    def test_zero_potential_gives_laplacian(self):
        w = SiteWindow(5)
        v = build_potential(ChainSpec((0.0,)), w)
        assert np.array_equal(assemble_hamiltonian(v).to_dense(), build_laplacian(w).to_dense())

    def test_two_center_asymmetry_magnitude(self):
        g = 0.35
        h = assemble_hamiltonian(build_potential(TwoCenterSpec(g, 0), SiteWindow(5))).to_dense()
        assert np.all(h.imag == 0)
        assert np.max(np.abs(h - h.T)) == pytest.approx(2 * g, abs=1e-15)

    def test_chain_antisymmetric_part_cancels(self):
        h = element(assemble_hamiltonian(build_potential(ChainSpec((0.8,)), SiteWindow(3))))
        assert h(0, 1) + h(1, 0) == -2.0
        assert h(0, -1) + h(-1, 0) == -2.0
