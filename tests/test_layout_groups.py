"""The grouped route: scatterers that share a bond layout are answered as one batch.

solve_numeric_grid and closed_form_grid group the scatterers of a grid by
their bond positions (the plan's key) and answer each group's (scatterer,
angle) pairs together.  Every R and T must keep the bits that solve_numeric
or closed_form gives that point alone: two-center groups of one N up to
MAX_N, equal-length chains with their own T scales, multi-center layouts,
and groups whose chunks split a scatterer.  A failure must surface as the
first failing point in grid order, also when the group that holds it runs
after a group whose failure comes later in grid order.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qhscatter.scattering as scattering
import qhscatter.sweeps as sweeps
from qhscatter import (
    BandError,
    ChainSpec,
    DomainError,
    MultiCenterSpec,
    QhScatterError,
    ResonanceError,
    TwoCenterSpec,
    closed_form,
    solve_numeric,
)
from qhscatter.potentials import MAX_N
from qhscatter.scattering import CHUNK_UNKNOWNS, closed_form_grid, solve_numeric_grid
from qhscatter.cli import main
from qhscatter.sweeps import (
    DEFAULT_G_GRID,
    DEFAULT_N_GRID,
    DEFAULT_PHI_MAX,
    DEFAULT_PHI_MIN,
    phi_grid,
    sweep_records,
)

COUPLINGS = st.floats(-(1.0 - 1e-12), 1.0 - 1e-12)
ANGLES = st.lists(st.floats(1e-9, math.pi - 1e-9), min_size=1, max_size=12)
SEPARATIONS = st.one_of(st.sampled_from([-1, 0, 1, 2, 3, 7, 50]), st.integers(-1, MAX_N))
# a chain beyond the double range: its T scale overflows, while its partner solves at every angle
OVERFLOWING = (0.3,) + (-0.9999999999999999,) * 20


def _parts(z) -> str:
    # repr tells -0.0 from 0.0 and shows every bit of a finite double
    return repr((z.real, z.imag))


def _alone(route, specs, phis):
    """route at each point alone, in grid order: each point's parts, or the first error."""
    try:
        return [(_parts(a.R), _parts(a.T)) for s in specs for p in phis for a in [route(s, p)]]
    except QhScatterError as exc:
        return type(exc).__name__, str(exc)


def _grouped(grid, specs, phis):
    """grid over all points at once, in the same form as _alone."""
    try:
        R, T = grid(specs, phis)
    except QhScatterError as exc:
        return type(exc).__name__, str(exc)
    assert R.shape == T.shape == (len(specs), len(phis))
    return [(_parts(r), _parts(t)) for r, t in zip(R.reshape(-1).tolist(), T.reshape(-1).tolist())]


def _assert_grouped_is_alone(specs, phis, closed=True):
    assert _grouped(solve_numeric_grid, specs, phis) == _alone(solve_numeric, specs, phis)
    if closed:
        assert _grouped(closed_form_grid, specs, phis) == _alone(closed_form, specs, phis)


class TestBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(n=SEPARATIONS, gs=st.lists(COUPLINGS, min_size=1, max_size=4), phis=ANGLES)
    def test_two_center_groups_of_one_separation(self, n, gs, phis):
        # +-g share every hop, and a repeated g is a second scatterer of the same couplings
        specs = [TwoCenterSpec(g, n) for g in [*gs, -gs[0], gs[0]]]
        _assert_grouped_is_alone(specs, phis)

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.integers(1, 5),
        data=st.data(),
        phis=ANGLES,
    )
    def test_equal_length_chains(self, length, data, phis):
        # each chain has its own T scale sqrt(theta_L/theta_R)
        vectors = data.draw(st.lists(st.lists(COUPLINGS, min_size=length, max_size=length), min_size=2, max_size=4))
        specs = [ChainSpec(tuple(v)) for v in vectors]
        assert len({tuple(s.bond_map()) for s in specs}) == 1
        _assert_grouped_is_alone(specs, phis, closed=False)

    @settings(max_examples=20, deadline=None)
    @given(
        vectors=st.lists(st.lists(st.floats(-0.9, 0.9), min_size=21, max_size=21), min_size=1, max_size=3),
        at=st.integers(0, 3),
        phis=st.lists(st.floats(0.05, math.pi - 0.05), min_size=1, max_size=8),
    )
    def test_a_chain_beyond_the_double_range(self, vectors, at, phis):
        # the group fails; the overflowing chain raises its DomainError at its first angle,
        # as solve_numeric raises it there
        specs = [ChainSpec(tuple(v)) for v in vectors]
        specs.insert(min(at, len(specs)), ChainSpec(OVERFLOWING))
        expected = ("DomainError", f"|T| exceeds the double range at phi={phis[0]!r}")
        assert _alone(solve_numeric, specs, phis) == expected
        assert _grouped(solve_numeric_grid, specs, phis) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.integers(2, 30), min_size=0, max_size=3),
        first=st.integers(-40, 40),
        data=st.data(),
        phis=ANGLES,
    )
    def test_multi_center_layouts(self, gaps, first, data, phis):
        centers = [first]
        for gap in gaps:
            centers.append(centers[-1] + gap)
        size = len(centers)
        vectors = data.draw(st.lists(st.lists(COUPLINGS, min_size=size, max_size=size), min_size=2, max_size=3))
        specs = [MultiCenterSpec(tuple(centers), tuple(v)) for v in vectors]
        _assert_grouped_is_alone(specs, phis, closed=False)

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([-1, 0, 2, 40]), gs=st.lists(COUPLINGS, min_size=2, max_size=3), extra=st.integers(1, 200))
    def test_chunks_split_a_scatterer(self, n, gs, extra):
        # the angle count divides no chunk's systems, so a chunk ends inside a scatterer
        unknowns = scattering._plan(tuple(TwoCenterSpec(0.5, n).bond_map())).n
        step, count = CHUNK_UNKNOWNS // unknowns, CHUNK_UNKNOWNS // unknowns // 2 + extra
        assume(step % count)
        specs, phis = [TwoCenterSpec(g, n) for g in gs], np.linspace(0.01, math.pi - 0.01, count)
        sizes, zgbsv = [], scattering.zgbsv
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scattering, "zgbsv", lambda kl, ku, ab, b, **kw: sizes.append(len(b)) or zgbsv(kl, ku, ab, b, **kw))
            solve_numeric_grid(specs, phis)
        pairs = len(specs) * count
        assert sizes == [unknowns * min(step, pairs - start) for start in range(0, pairs, step)]
        _assert_grouped_is_alone(specs, phis)

    def test_spans_of_many_angles(self, monkeypatch):
        # 40 blocks have 160 unknowns: 25 systems a chunk, and 2 scatterers take spans
        # of 87 angles (7 chunks), so 300 angles take four spans, each with its one phase call
        centers = tuple(range(-400, 400, 20))
        specs = [MultiCenterSpec(centers, tuple(np.random.default_rng(s).uniform(-0.9, 0.9, 40))) for s in (1, 2)]
        phis = np.linspace(0.02, math.pi - 0.02, 300)
        spans, phase = [], scattering._phase
        ks = scattering._plan(tuple(specs[0].bond_map())).ks

        def spy(k, p):
            if isinstance(k, np.ndarray) and k.tolist() == list(ks):
                spans.append(len(p))
            return phase(k, p)

        monkeypatch.setattr(scattering, "_phase", spy)
        _assert_grouped_is_alone(specs, phis, closed=False)
        assert spans == [87, 87, 87, 39]

    def test_a_group_is_one_batch(self, monkeypatch):
        # the verify grid's 80 scatterers make 8 layouts, each solved in chunks of whole (scatterer, angle) pairs
        calls = []
        zgbsv = scattering.zgbsv
        monkeypatch.setattr(scattering, "zgbsv", lambda *a, **kw: calls.append(len(a[3])) or zgbsv(*a, **kw))
        specs = [TwoCenterSpec(g, n) for g in DEFAULT_G_GRID for n in DEFAULT_N_GRID]
        solve_numeric_grid(specs, np.linspace(0.05, math.pi - 0.05, 42)[1:-1])
        plans = {tuple(s.bond_map()): scattering._plan(tuple(s.bond_map())).n for s in specs}
        assert len(plans) == 8
        expected = []
        for n in plans.values():
            pairs, step = 10 * 40, CHUNK_UNKNOWNS // n
            expected += [n * min(step, pairs - start) for start in range(0, pairs, step)]
        assert calls == expected


def _force_in_solve(monkeypatch, targets):
    """Make chosen points fail: targets maps (two-center scatterer, phi) to 0.0 (singular) or 2.0 (broken).

    zgbsv, the LAPACK call of the one-angle and the batched route alike, is
    wrapped so that the system of a target point has R's column (the first
    two entries of bond 0's rows) and its right-hand side (the incoming
    wave) scaled by the factor: 0 empties R's column, 2 doubles T_h.  A
    system is told by all its entries, which the one-angle fill of the
    point gives (numpy's cos and sin may round apart from math's in the
    last bit), so the other scatterers and angles keep their systems; g
    and -g have the same rows and are forced alike.
    """
    marks = []
    for (spec, phi), factor in targets.items():
        _, ab, rhs = scattering._bond_system(spec.bond_map(), phi)
        marks.append((ab.copy(), rhs.copy(), factor))
    zgbsv = scattering.zgbsv

    def forced(kl, ku, ab, b, **kwargs):
        for ab_ref, rhs_ref, factor in marks:
            n = len(rhs_ref)
            if len(b) % n:
                continue
            blocks = ab.T.reshape(-1, 7 * n)  # one system per row, its band columns in turn
            assert np.shares_memory(blocks, ab)
            hit = (abs(blocks - ab_ref) < 1e-12).all(axis=1) & (abs(b.reshape(-1, n) - rhs_ref) < 1e-12).all(axis=1)
            for i in np.flatnonzero(hit).tolist():
                blocks[i, [4, 5]] *= factor
                b[i * n : i * n + 2] *= factor
        return zgbsv(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(scattering, "zgbsv", forced)


class TestFirstFailureInGridOrder:
    # grid order A, B, C; A and C share a layout and are solved first
    A, B, C = TwoCenterSpec(0.3, 1), TwoCenterSpec(0.3, 2), TwoCenterSpec(-0.6, 1)
    PHIS = np.linspace(0.3, 2.8, 9)

    def _first_error(self, specs):
        with pytest.raises(QhScatterError) as exc:
            solve_numeric_grid(specs, self.PHIS)
        return type(exc.value).__name__, str(exc.value)

    @pytest.mark.parametrize("late, early", [(0.0, 2.0), (2.0, 0.0), (0.0, 0.0), (2.0, 2.0)])
    def test_a_later_group_holds_the_first_failure(self, monkeypatch, late, early):
        # C fails at angle 1, in the group that runs first; B fails at angle 6, before C in grid order
        phis = self.PHIS.tolist()
        _force_in_solve(monkeypatch, {(self.C, phis[1]): late, (self.B, phis[6]): early})
        expected = self._first_error([self.B])
        assert expected[1].endswith(f"at phi={phis[6]!r}")
        assert expected[1].startswith("matching system singular" if early == 0.0 else "partner unitarity violated")
        assert self._first_error([self.A, self.B, self.C]) == expected
        solve_numeric_grid([self.A], self.PHIS)  # A shares C's layout but not its rows, and is not forced
        # alone, C fails at its own angle, and the grid without B raises C's error
        assert self._first_error([self.C])[1].endswith(f"at phi={phis[1]!r}")
        assert self._first_error([self.A, self.C]) == self._first_error([self.C])

    def test_a_sweep_reports_it_too(self, monkeypatch):
        phis = self.PHIS.tolist()
        _force_in_solve(monkeypatch, {(self.C, phis[0]): 0.0, (self.B, phis[8]): 2.0})
        with pytest.raises(QhScatterError) as exc:
            sweep_records([self.A, self.B, self.C], self.PHIS, "both")
        assert str(exc.value).startswith("partner unitarity violated")
        assert str(exc.value).endswith(f"at phi={phis[8]!r}")

    def test_verify_reports_it_in_grid_order(self, monkeypatch, capsys):
        # the grid's N = -1 group is solved first; g = -0.9, N = 50 still comes before g = -0.7, N = -1
        phis = np.linspace(DEFAULT_PHI_MIN, DEFAULT_PHI_MAX, 42)[1:-1].tolist()
        first, later = TwoCenterSpec(-0.9, 50), TwoCenterSpec(-0.7, -1)
        _force_in_solve(monkeypatch, {(first, phis[5]): 2.0, (later, phis[2]): 0.0})
        assert main(["verify"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resonance: partner unitarity violated") and err.endswith(f"at phi={phis[5]!r}\n")

    def test_a_refused_method_after_a_failure(self, monkeypatch):
        # a chain under 'both' is refused only once the scatterers before it are answered
        phis = self.PHIS.tolist()
        _force_in_solve(monkeypatch, {(self.B, phis[3]): 0.0})
        specs = [self.A, self.B, ChainSpec((0.5,))]
        with pytest.raises(QhScatterError) as exc:
            sweep_records(specs, self.PHIS, "both")
        assert str(exc.value) == f"matching system singular at phi={phis[3]!r}"
        with pytest.raises(QhScatterError, match="closed forms exist only"):
            sweep_records([self.A, ChainSpec((0.5,))], self.PHIS, "both")

    @pytest.mark.parametrize("method", ["closed", "both"])
    def test_bad_angles_and_a_refused_method(self, method):
        # a two-center spec before the chain meets the bad angle first; a chain first is refused first
        with pytest.raises(BandError) as exc:
            sweep_records([TwoCenterSpec(0.5, 0), ChainSpec((0.5,))], [0.0, 1.0], method)
        assert str(exc.value) == "phi=0.0 outside the open band interval (0, pi)"
        with pytest.raises(DomainError, match="closed forms exist only"):
            sweep_records([ChainSpec((0.5,)), TwoCenterSpec(0.5, 0)], [0.0, 1.0], method)

    def test_a_refused_method_solves_nothing_under_closed(self, monkeypatch):
        monkeypatch.setattr(sweeps, "solve_numeric_grid", lambda *a: pytest.fail("a numeric solve under closed"))
        with pytest.raises(DomainError, match="closed forms exist only"):
            sweep_records([self.A, self.B, ChainSpec((0.5,))], self.PHIS, "closed")


class TestANaturalRefusal:
    """Band-edge points at weak coupling, where the self-check itself decides, with nothing forced.

    At g = 1e-5, N = 0 and phi = 1e-9 the rows of the old cluster route
    broke the partner's unitarity by 1.5e-9, above the 1e-9 bound, and the
    point was refused; the bond rows answer it within 1e-15 of mpmath.
    Whether the routes refuse or answer, a sweep and the suites' scoring
    must do what the per-point loop of solve_numeric does.
    """

    GRIDS = {
        "one point": ([TwoCenterSpec(1e-5, 0)], np.array([1e-9])),
        "sweep": ([TwoCenterSpec(g, n) for g in (0.3, 1e-5) for n in (0, 1)], phi_grid(3, 1e-9, 0.5)),
    }

    @staticmethod
    def _outcome(route):
        try:
            route()
        except QhScatterError as exc:
            return type(exc).__name__, str(exc)
        return "answered"

    @pytest.mark.parametrize("grid", GRIDS)
    def test_the_batched_routes_refuse_as_the_loop_does(self, grid):
        specs, phis = self.GRIDS[grid]
        expected = self._outcome(lambda: [solve_numeric(s, p) for s in specs for p in phis.tolist()])
        assert self._outcome(lambda: solve_numeric_grid(specs, phis)) == expected
        for method in ("numeric", "both"):
            assert self._outcome(lambda: sweep_records(specs, phis, method)) == expected
        assert self._outcome(lambda: _scores(specs, phis)) == expected


class TestTheReplayIsBounded:
    """After a failed batch, solve_numeric replays only the failing group and the groups not yet solved.

    The groups are solved in order of first appearance, and a group solved
    before the failing one answered every point, so its points are not
    solved again; the replay runs in grid order and stops at the first
    failing point, or raises the batch's error once every point answered.
    """

    # groups in order: N = 1 (A, C), N = 2 (B), N = 3 (D)
    A, B, C, D = TwoCenterSpec(0.3, 1), TwoCenterSpec(0.3, 2), TwoCenterSpec(-0.6, 1), TwoCenterSpec(0.3, 3)
    PHIS = np.linspace(0.3, 2.8, 9)

    @staticmethod
    def _spy(monkeypatch):
        replayed = []
        one_angle = scattering.solve_numeric

        def spy(spec, phi):
            replayed.append((spec, phi))
            return one_angle(spec, phi)

        monkeypatch.setattr(scattering, "solve_numeric", spy)
        return replayed

    def test_a_point_refusal_stops_the_replay(self, monkeypatch):
        phis = self.PHIS.tolist()
        _force_in_solve(monkeypatch, {(self.B, phis[6]): 0.0})
        replayed = self._spy(monkeypatch)
        with pytest.raises(QhScatterError) as exc:
            solve_numeric_grid([self.A, self.B, self.C, self.D], self.PHIS)
        assert str(exc.value) == f"matching system singular at phi={phis[6]!r}"
        # B's angles up to the failing one; the loop over every point solved A's 9 too
        assert replayed == [(self.B, p) for p in phis[:7]]

    def test_a_batch_refusal_replays_its_group_and_the_later_ones(self, monkeypatch):
        # B's batch fails though each of its points answers alone
        solve_group = scattering._solve_group

        def failing(specs, bond_maps, phis):
            if specs[0] == self.B:
                raise ResonanceError("the batch of B")
            return solve_group(specs, bond_maps, phis)

        monkeypatch.setattr(scattering, "_solve_group", failing)
        replayed = self._spy(monkeypatch)
        with pytest.raises(ResonanceError, match="^the batch of B$"):
            solve_numeric_grid([self.D, self.A, self.B, self.C], self.PHIS)
        # groups in order N = 3 (D), N = 1 (A, C), N = 2 (B): only B is replayed
        assert replayed == [(self.B, p) for p in self.PHIS.tolist()]
        replayed.clear()
        with pytest.raises(ResonanceError, match="^the batch of B$"):
            solve_numeric_grid([self.A, self.B, self.C, self.D], self.PHIS)
        # N = 1 answered first; B, then D, in grid order
        assert replayed == [(spec, p) for spec in (self.B, self.D) for p in self.PHIS.tolist()]


def _scores(specs, phis):
    """What suite_scores keeps, over the grid specs x phis: the numeric and closed defects and the gaps."""
    closed, numeric = closed_form_grid(specs, phis), solve_numeric_grid(specs, phis)
    return sweeps._squares(*numeric)[-1], sweeps._squares(*closed)[-1], sweeps._gaps(closed, numeric)
