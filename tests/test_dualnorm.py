import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodykit import dualnorm
from ergodykit.dualnorm import (
    _BOUND_SLACK,
    _dual_norm_lp,
    chain_norms,
    distance_value,
    dual_norm,
    dual_norms,
    lower_bound_sample,
    norm_bounds,
    transport_norms,
)
from ergodykit.measures import AtomicSignedMeasure, canonicalize, dirac, pushforward, uniform_atoms, zero_measure

from conftest import counting_linprog, matching_costs_loop, random_measure


def M(pairs):
    return canonicalize(
        AtomicSignedMeasure(
            np.array([p for p, _ in pairs]), np.array([w for _, w in pairs])
        )
    )


def test_holder_exponent_validation():
    assert dual_norm(dirac(0.5), 0.5) == 1.0
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError):
            dual_norm(dirac(0.5), bad)
        with pytest.raises(ValueError):
            _dual_norm_lp(dirac(0.5), bad)


def _oracle_and_exact(mu, zeta):
    """The all-pairs LP value and the exact ``dual_norm`` of one measure."""
    return _dual_norm_lp(mu, zeta)[0], dual_norm(mu, zeta)


class TestDualNormExamples:
    """Hand-worked values, for the LP oracle and for ``dual_norm`` alike."""

    def test_single_probability_atom(self):
        for value in _oracle_and_exact(dirac(0.3), 1.0):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_dipole(self):
        mu = M([(0.2, 0.5), (0.6, -0.5)])
        # optimum 0.5 * min(|dx|, 2); the optimal witness is linear
        for value in _oracle_and_exact(mu, 1.0):
            assert value == pytest.approx(0.2, abs=1e-9)

    def test_wide_dipole_sqrt(self):
        mu = M([(0.1, 1.0), (0.9, -1.0)])
        for value in _oracle_and_exact(mu, 0.5):
            assert value == pytest.approx(min(2.0, 0.8**0.5), abs=1e-9)
            assert value == pytest.approx(0.8944271909999159, abs=1e-9)

    def test_zero_measure(self):
        assert _oracle_and_exact(zero_measure(), 1.0) == (0.0, 0.0)

    def test_oracle_trivial_measures(self):
        assert _dual_norm_lp(zero_measure(), 0.5) == (0.0, [])
        for w in (0.75, -2.0):
            mu = AtomicSignedMeasure(np.array([0.4]), np.array([w]))
            assert _dual_norm_lp(mu, 0.5) == (abs(w), [(0.4, np.sign(w))])

    def test_witness_feasible(self):
        rng = np.random.default_rng(0)
        for zeta in (0.5, 1.0):
            mu = random_measure(rng, 12)
            value, witness = _dual_norm_lp(mu, zeta)
            g = np.array([v for _, v in witness])
            pos = np.array([p for p, _ in witness])
            assert np.max(np.abs(g)) <= 1 + 1e-8
            dif = np.abs(g[:, None] - g[None, :])
            dist = np.abs(pos[:, None] - pos[None, :]) ** zeta
            assert np.all(dif <= dist + 1e-8)
            assert float(np.dot(mu.weights, g)) == pytest.approx(value, abs=1e-8)

    def test_lp_solves(self):
        # neither exact route solves an LP, at any zeta or sign pattern
        rng = np.random.default_rng(12)
        signed = random_measure(rng, 9)
        assert (signed.weights > 0).any() and (signed.weights < 0).any()
        one_signed = random_measure(rng, 9, kind="probability")
        for mu in (signed, one_signed):
            for zeta in (1.0, 0.5):
                rows = []
                with counting_linprog(rows):
                    dual_norm(mu, zeta)
                assert rows == []


class TestFastPathAgreement:
    """The exact ``dual_norm`` must agree with the all-pairs LP to 1e-9."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10_000))
    def test_chain_equals_lp(self, n_atoms, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n_atoms)
        assert dual_norm(mu, 1.0) == pytest.approx(_dual_norm_lp(mu, 1.0)[0], abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10_000), st.sampled_from([0.3, 0.5, 1.0]))
    def test_closed_forms_match_lp(self, n_atoms, seed, zeta):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n_atoms)
        assert dual_norm(mu, zeta) == pytest.approx(_dual_norm_lp(mu, zeta)[0], abs=1e-9)


@st.composite
def _flat_fibers(draw):
    """Several fibers in the flat (cell, position, weight) layout.

    Each cell is a fiber a minus a fiber b on a 1/16 grid, so positions of
    a and b coincide often.  Dyadic weights make every cumulative sum
    exact: the mass is positive, negative or exactly zero, as drawn.
    """
    ncell = draw(st.integers(1, 8))
    grid = st.integers(0, 16).map(lambda k: k / 16)
    cells, pos, w = [], [], []
    for c in range(ncell):
        shape = draw(st.sampled_from(["empty", "single", "same-sign", "a-b", "zero-mass"]))
        if shape == "empty":
            continue
        if shape == "single":
            atoms = [(draw(grid), draw(st.integers(-8, 8).filter(bool)) / 8)]
        elif shape == "same-sign":
            sign = draw(st.sampled_from([-1, 1]))
            atoms = [(draw(grid), sign * draw(st.integers(1, 8)) / 8)
                     for _ in range(draw(st.integers(1, 12)))]
        else:
            k = draw(st.integers(1, 12))
            atoms = [(draw(grid), draw(st.integers(1, 8)) / 8) for _ in range(k)]
            atoms += [(draw(grid), -draw(st.integers(1, 8)) / 8) for _ in range(k)]
            if shape == "zero-mass":
                atoms.append((draw(grid), -sum(x for _, x in atoms)))
        cells += [c] * len(atoms)
        pos += [p for p, _ in atoms]
        w += [x for _, x in atoms]
    order = draw(st.permutations(range(len(cells))))
    return (
        np.array(cells, dtype=np.intp)[order],
        np.array(pos, dtype=float)[order],
        np.array(w, dtype=float)[order],
        ncell,
    )


class TestChainNorms:
    """The batched zeta = 1 route against the all-pairs LP, cell by cell."""

    @settings(max_examples=150, deadline=None)
    @given(_flat_fibers())
    def test_matches_lp_per_cell(self, flat):
        cell, pos, w, ncell = flat
        got = chain_norms(cell, pos, w, ncell)
        assert got.shape == (ncell,)
        for c in range(ncell):
            mu = AtomicSignedMeasure(pos[cell == c], w[cell == c])
            assert got[c] == pytest.approx(_dual_norm_lp(mu, 1.0)[0], abs=1e-9)
        for block in (1, 7):
            with mock.patch.object(dualnorm, "_CHAIN_BLOCK_ENTRIES", block):
                assert np.array_equal(chain_norms(cell, pos, w, ncell), got)

    def test_masses_of_each_sign(self):
        # M > 0, M < 0 and M = 0 in one call, with the values worked by hand
        cell = np.array([0, 0, 1, 1, 2, 2, 3])
        pos = np.array([0.25, 0.75, 0.25, 0.75, 0.25, 0.75, 0.5])
        w = np.array([1.0, -0.5, -1.0, 0.5, 0.5, -0.5, 0.0])
        got = chain_norms(cell, pos, w, 5)
        assert got.tolist() == pytest.approx([0.75, 0.75, 0.25, 0.0, 0.0], abs=1e-15)

    def test_random_fibers_match_lp(self):
        rng = np.random.default_rng(11)
        fibers = [random_measure(rng, int(rng.integers(1, 40))) for _ in range(12)]
        cell = np.repeat(np.arange(12), [f.n_atoms for f in fibers])
        got = chain_norms(
            cell,
            np.concatenate([f.positions for f in fibers]),
            np.concatenate([f.weights for f in fibers]),
            12,
        )
        for c, f in enumerate(fibers):
            assert got[c] == pytest.approx(_dual_norm_lp(f, 1.0)[0], abs=1e-9)
        # differences of fibers that share atoms, as in the distance of two
        # iterates: the shared atoms cancel exactly, and cell 0 cancels whole
        others = [fibers[0]] + [
            AtomicSignedMeasure(f.positions[::2], f.weights[::2]) + random_measure(rng, 3)
            for f in fibers[1:]
        ]
        cell = np.repeat(np.arange(12), [f.n_atoms + g.n_atoms for f, g in zip(fibers, others)])
        got = chain_norms(
            cell,
            np.concatenate([np.r_[f.positions, g.positions] for f, g in zip(fibers, others)]),
            np.concatenate([np.r_[f.weights, -g.weights] for f, g in zip(fibers, others)]),
            12,
        )
        assert got[0] == 0.0
        for c, (f, g) in enumerate(zip(fibers, others)):
            assert got[c] == pytest.approx(_dual_norm_lp(f - g, 1.0)[0], abs=1e-9)

    def test_no_atoms(self):
        empty = np.empty(0)
        assert chain_norms(empty.astype(np.intp), empty, empty, 3).tolist() == [0.0] * 3


class TestChainBounds:
    """``norm_bounds`` at zeta = 1: the closed form without its integral
    term below the norm, that plus M * span above it, both with the
    rounding slack, and the norms of any measures on demand, bit for bit
    those of ``chain_norms``."""

    @settings(max_examples=150, deadline=None)
    @given(_flat_fibers(), st.integers(0, 2**32 - 1))
    def test_bounds_and_norms(self, flat, seed):
        cell, pos, w, ncell = flat
        want = chain_norms(cell, pos, w, ncell)
        lower, upper, norms = norm_bounds(cell, pos, w, ncell, 1.0)
        assert np.all(lower <= want)
        assert np.all(want <= upper + 1e-12)
        # any measures, in any order, repeated or without atoms
        k = np.random.default_rng(seed).integers(0, ncell, size=2 * ncell)
        assert norms(k).tobytes() == want[k].tobytes()
        assert norms(np.arange(ncell)).tobytes() == want.tobytes()
        assert norms(k[:0]).shape == (0,)

    def test_worked_values(self):
        # delta_0 - delta_1/2 + delta_1: M = 1 over a span of 1, F = (1, 0, 1)
        # in [0, M], and an integral term of 1/2; M = 0, where both bounds
        # are the norm; an empty measure; and a measure whose atoms cancel.
        # The slack is 2**-30 times each measure's total variation as given
        cell = np.array([0, 0, 0, 1, 1, 3, 3])
        pos = np.array([0.0, 0.5, 1.0, 0.25, 0.75, 0.5, 0.5])
        w = np.array([1.0, -1.0, 1.0, 0.5, -0.5, 1.0, -1.0])
        lower, upper, norms = norm_bounds(cell, pos, w, 4, 1.0)
        slack = _BOUND_SLACK * np.array([3.0, 1.0, 0.0, 2.0])
        assert _BOUND_SLACK == 2.0**-30
        assert lower.tolist() == (np.array([1.0, 0.25, 0.0, 0.0]) - slack).tolist()
        assert upper.tolist() == (
            (1.0 + _BOUND_SLACK) * np.array([2.0, 0.25, 0.0, 0.0]) + slack).tolist()
        assert norms([3, 2, 1, 0]).tolist() == [0.0, 0.0, 0.25, 1.5]
        assert chain_norms(cell, pos, w, 4).tolist() == [1.5, 0.25, 0.0, 0.0]

    def test_no_atoms(self):
        empty = np.empty(0)
        lower, upper, norms = norm_bounds(empty.astype(np.intp), empty, empty, 3, 1.0)
        assert lower.tolist() == upper.tolist() == [0.0] * 3
        assert norms([2, 0]).tolist() == [0.0, 0.0]


class TestNormBounds:
    """``norm_bounds`` at every zeta: the bounds hold on the exact norms, and
    ``norms(k)`` is ``dual_norms`` bit for bit whichever measures it is
    asked for (the selection-independence of ``_transport_integrals``)."""

    @settings(max_examples=100, deadline=None)
    @given(_flat_fibers(), st.sampled_from([0.5, 0.2, 1.0 - 2.0**-50]),
           st.integers(0, 2**32 - 1))
    def test_bounds_and_norms(self, flat, zeta, seed):
        cell, pos, w, ncell = flat
        want = dual_norms(cell, pos, w, ncell, zeta)
        lower, upper, norms = norm_bounds(cell, pos, w, ncell, zeta)
        assert np.all(lower <= want) and np.all(want <= upper)
        # any measures, in any order, repeated or without atoms
        k = np.random.default_rng(seed).integers(0, ncell, size=2 * ncell)
        assert norms(k).tobytes() == want[k].tobytes()
        assert norms(k[:1]).tobytes() == want[k[:1]].tobytes()
        assert norms(np.arange(ncell)).tobytes() == want.tobytes()
        assert norms(k[:0]).shape == (0,)


def _per_cell_lp(cell, pos, w, ncell, zeta):
    out = []
    for c in range(ncell):
        mu = AtomicSignedMeasure(pos[cell == c], w[cell == c])
        out.append(_dual_norm_lp(mu, zeta)[0])
    return np.array(out)


class TestTransportNorms:
    """The batched zeta < 1 route against the all-pairs LP, cell by cell."""

    @settings(max_examples=60, deadline=None)
    @given(_flat_fibers(), st.sampled_from([0.25, 0.5, 0.75]))
    def test_matches_lp_per_cell(self, flat, zeta):
        cell, pos, w, ncell = flat
        got = transport_norms(cell, pos, w, ncell, zeta)
        assert got.shape == (ncell,)
        assert np.abs(got - _per_cell_lp(cell, pos, w, ncell, zeta)).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(_flat_fibers(), st.sampled_from([0.25, 0.5, 1.0]))
    def test_block_size_does_not_change_norms(self, flat, zeta):
        cell, pos, w, ncell = flat
        got = transport_norms(cell, pos, w, ncell, zeta)
        for block in (1, 7):
            with mock.patch.object(dualnorm, "_CHAIN_BLOCK_ENTRIES", block):
                assert np.array_equal(transport_norms(cell, pos, w, ncell, zeta), got)

    @settings(max_examples=150, deadline=None)
    @given(_flat_fibers())
    def test_zeta_one_matches_chain_norms(self, flat):
        # the two exact routes, checked against each other without an LP
        cell, pos, w, ncell = flat
        got = transport_norms(cell, pos, w, ncell, 1.0)
        assert np.abs(got - chain_norms(cell, pos, w, ncell)).max() <= 1e-12

    @pytest.mark.parametrize("zeta", [0.25, 0.5, 0.75])
    def test_edge_cases_match_lp(self, zeta):
        cells = [
            [],                                            # empty
            [(0.2, 0.5), (0.7, -0.5)],                     # zero total mass
            [(0.1, 0.25), (0.4, -1.0), (0.9, 0.5)],        # negative total mass
            [(0.3, 1.0), (0.3, -0.25), (0.6, -0.5)],       # coincident atoms
            [(0.5, 0.75), (0.5, -0.75), (0.8, 0.0)],       # coincident, cancelling
            # grid ties in F: F = 1/2, 0, 1/2, 0, 1/2, 1/4 repeats breakpoints
            [(0.0, 0.5), (0.25, -0.5), (0.5, 0.5), (0.625, -0.5), (0.75, 0.5),
             (1.0, -0.25)],
            [(0.1, 0.5), (0.3, 0.25), (0.95, 0.125)],      # single sign, positive
            [(0.2, -0.5), (0.4, -0.5)],                    # single sign, negative
            [],                                            # empty
        ]
        cell = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
        pos = np.array([p for c in cells for p, _ in c])
        w = np.array([x for c in cells for _, x in c])
        got = transport_norms(cell, pos, w, len(cells), zeta)
        want = _per_cell_lp(cell, pos, w, len(cells), zeta)
        assert np.abs(got - want).max() <= 1e-9
        assert got[0] == got[4] == got[-1] == 0.0
        assert got[6] == 0.875 and got[7] == 1.0

    def test_same_sign_and_single_atoms_need_no_lp(self):
        cell = np.array([0, 0, 1, 1, 2])
        pos = np.array([0.1, 0.9, 0.2, 0.4, 0.5])
        w = np.array([0.25, 0.5, -1.0, -0.5, -2.0])
        got = transport_norms(cell, pos, w, 4, 0.5)
        assert got.tolist() == [0.75, 1.5, 2.0, 0.0]

    def test_alternating_worst_case(self):
        # alternating +-w puts every atom on the one level of a cell: 64
        # matchings of 128 crossings each, the largest at fiber cap 64
        rng = np.random.default_rng(5)
        k, n = 64, 128
        pos = np.sort(rng.uniform(0.0, 1.0, (k, n)), axis=1).ravel()
        w = np.tile([0.25, -0.25], k * n // 2)
        cell = np.repeat(np.arange(k), n)
        start = time.perf_counter()
        got = transport_norms(cell, pos, w, k, 0.5)
        assert time.perf_counter() - start < 2.0
        for c in (0, k - 1):
            mu = AtomicSignedMeasure(pos[cell == c], w[cell == c])
            assert got[c] == pytest.approx(_dual_norm_lp(mu, 0.5)[0], abs=1e-9)

    def test_no_atoms(self):
        empty = np.empty(0)
        assert transport_norms(empty.astype(np.intp), empty, empty, 2, 0.5).tolist() == [0.0] * 2

    @pytest.mark.parametrize("zeta", [0.25, 0.5, 0.75, 1.0])
    def test_level_dp_matches_offset_loop(self, zeta):
        # every even row length up to 130, with and without the sink at +inf
        rng = np.random.default_rng(8)
        for m in range(2, 131, 8):
            x = np.sort(rng.uniform(0.0, 1.0, (5, m)), axis=1)
            x[::2, -1] = np.inf
            assert np.array_equal(dualnorm._matching_costs(x, zeta), matching_costs_loop(x, zeta))

    @pytest.mark.parametrize("block", [1, 7, dualnorm._CHAIN_BLOCK_ENTRIES])
    def test_zigzag_norms_match_offset_loop(self, block):
        # weights +1, -2, +3, ...: up to 32 crossings on each of 32 levels
        rng = np.random.default_rng(6)
        k, n = 4, 32
        pos = np.sort(rng.uniform(0.0, 1.0, (k, n)), axis=1).ravel()
        w = np.tile((np.arange(1, n + 1) * (-1.0) ** np.arange(n)), k)
        cell = np.repeat(np.arange(k), n)
        with mock.patch.object(dualnorm, "_CHAIN_BLOCK_ENTRIES", block):
            got = transport_norms(cell, pos, w, k, 0.5)
            with mock.patch.object(dualnorm, "_matching_costs", matching_costs_loop):
                want = transport_norms(cell, pos, w, k, 0.5)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("zeta", [0.25, 0.5])
    def test_sink_levels_matched_with_even_ones(self, zeta, monkeypatch):
        # a level of 2k - 1 crossings and the sink is matched in one DP call
        # with the levels of 2k crossings; solving the two kinds apart, as
        # separate calls, gives the same norms bit for bit
        real = dualnorm._matching_costs
        mixed = []

        def apart(x, z):
            sink = np.isinf(x[:, -1])
            mixed.append(sink.any() and not sink.all())
            out = np.empty(x.shape[0])
            for rows in (sink, ~sink):
                if rows.any():
                    out[rows] = real(x[rows], z)
            return out

        rng = np.random.default_rng(12)
        k, n = 24, 40
        pos = np.sort(rng.uniform(0.0, 1.0, (k, n)), axis=1).ravel()
        w = rng.standard_normal(k * n)
        cell = np.repeat(np.arange(k), n)
        got = transport_norms(cell, pos, w, k, zeta)
        monkeypatch.setattr(dualnorm, "_matching_costs", apart)
        assert transport_norms(cell, pos, w, k, zeta).tobytes() == got.tobytes()
        assert any(mixed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 10_000), st.sampled_from([0.25, 0.5, 0.75]))
    def test_auto_is_one_fiber_transport(self, n_atoms, seed, zeta):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n_atoms)
        seg = np.zeros(mu.n_atoms, dtype=np.intp)
        value = dual_norm(mu, zeta)
        assert type(value) is float
        assert value == transport_norms(seg, mu.positions, mu.weights, 1, zeta)[0]
        assert value == pytest.approx(_dual_norm_lp(mu, zeta)[0], abs=1e-9)


class TestNormProperties:
    def test_probabilities_have_norm_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = random_measure(rng, int(rng.integers(1, 30)), kind="probability")
            for zeta in (0.5, 1.0):
                assert dual_norm(mu, zeta) == pytest.approx(1.0, abs=1e-9)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            c = float(rng.uniform(-3, 3))
            v = dual_norm(mu, 1.0)
            assert dual_norm(c * mu, 1.0) == pytest.approx(abs(c) * v, abs=1e-9)

    def test_subadditivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 15)))
            nu = random_measure(rng, int(rng.integers(1, 15)))
            assert (
                dual_norm(mu + nu, 0.5)
                <= dual_norm(mu, 0.5) + dual_norm(nu, 0.5) + 1e-9
            )

    def test_mass_bounded_by_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            assert abs(mu.total_mass()) <= dual_norm(mu, 1.0) + 1e-9

    def test_contraction_under_pushforward(self):
        # zero-mass: rate alpha**zeta; with mass: extra |mass| allowance
        rng = np.random.default_rng(5)
        for _ in range(15):
            alpha = float(rng.uniform(0, 0.95))
            b = float(rng.uniform(0, 1 - alpha))
            cmap = lambda y, _a=alpha, _b=b: _a * y + _b
            for zeta in (0.5, 1.0):
                mu = random_measure(rng, int(rng.integers(1, 20)), kind="zero_mass")
                before = dual_norm(mu, zeta)
                after = dual_norm(pushforward(mu, cmap), zeta)
                assert after <= alpha**zeta * before + 1e-9
                nu = random_measure(rng, int(rng.integers(1, 20)))
                assert (
                    dual_norm(pushforward(nu, cmap), zeta)
                    <= alpha**zeta * dual_norm(nu, zeta)
                    + abs(nu.total_mass())
                    + 1e-9
                )

    def test_weak_contraction_lipschitz_map(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            # 1-Lipschitz into [0, 1]
            out = pushforward(mu, lambda y: 0.3 + 0.7 * np.abs(y - 0.4))
            assert dual_norm(out, 1.0) <= dual_norm(mu, 1.0) + 1e-9


class TestDualDistance:
    def test_identical_diracs(self):
        assert distance_value(dirac(0.5), dirac(0.5), 1.0) == 0.0

    def test_two_point_transport(self):
        for a, b in [(0.1, 0.4), (0.0, 1.0), (0.7, 0.2)]:
            assert distance_value(dirac(a), dirac(b), 1.0) == pytest.approx(
                min(abs(a - b), 2.0), abs=1e-9
            )

    def test_symmetry_triangle(self):
        rng = np.random.default_rng(7)
        a = random_measure(rng, 8)
        b = random_measure(rng, 8)
        c = random_measure(rng, 8)
        dab = distance_value(a, b, 0.5)
        assert dab == pytest.approx(distance_value(b, a, 0.5), abs=1e-9)
        assert dab <= distance_value(a, c, 0.5) + distance_value(c, b, 0.5) + 1e-9

    def test_dominates_sampled_lower_bound(self):
        halves = M([(0.25, 0.5), (0.75, 0.5)])
        grid = uniform_atoms(100)
        diff = halves - grid
        lo = lower_bound_sample(diff, 1.0, trials=300)
        assert dual_norm(diff, 1.0) >= lo - 1e-9


class TestLowerBoundSample:
    def test_zero(self):
        assert lower_bound_sample(zero_measure(), 1.0, trials=5) == 0.0

    def test_dipole_approaches_optimum(self):
        mu = M([(0.2, 0.5), (0.6, -0.5)])
        lo = lower_bound_sample(mu, 1.0, trials=10_000)
        assert 0.19 <= lo <= 0.2 + 1e-9

    def test_probability_exactly_one(self):
        rng = np.random.default_rng(8)
        mu = random_measure(rng, 17, kind="probability")
        # the constant trial g = 1 is deterministic, so the bound is exact
        assert lower_bound_sample(mu, 0.5, trials=1) == pytest.approx(1.0, abs=1e-12)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            lower_bound_sample(dirac(0.1), 1.0, trials=0)

    def test_never_exceeds_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu = random_measure(rng, int(rng.integers(1, 15)))
            for zeta in (0.5, 1.0):
                assert (
                    lower_bound_sample(mu, zeta, trials=50)
                    <= dual_norm(mu, zeta) + 1e-9
                )
