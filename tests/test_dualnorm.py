import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodykit.dualnorm import (
    dual_distance,
    dual_norm,
    lower_bound_sample,
)
from ergodykit.measures import AtomicSignedMeasure, canonicalize, dirac, pushforward, uniform_atoms, zero_measure

from conftest import random_measure


def M(pairs):
    return canonicalize(
        AtomicSignedMeasure(
            np.array([p for p, _ in pairs]), np.array([w for _, w in pairs])
        )
    )


def test_holder_exponent_validation():
    assert dual_norm(dirac(0.5), 0.5).value == 1.0
    with pytest.raises(ValueError):
        dual_norm(dirac(0.5), 0.0)
    with pytest.raises(ValueError):
        dual_norm(dirac(0.5), 1.5)


class TestDualNormExamples:
    def test_single_probability_atom(self):
        assert dual_norm(dirac(0.3), 1.0).value == pytest.approx(1.0, abs=1e-9)

    def test_dipole(self):
        mu = M([(0.2, 0.5), (0.6, -0.5)])
        # optimum 0.5 * min(|dx|, 2); the optimal witness is linear
        assert dual_norm(mu, 1.0).value == pytest.approx(0.2, abs=1e-9)

    def test_wide_dipole_sqrt(self):
        mu = M([(0.1, 1.0), (0.9, -1.0)])
        assert dual_norm(mu, 0.5).value == pytest.approx(min(2.0, 0.8**0.5), abs=1e-9)
        assert dual_norm(mu, 0.5).value == pytest.approx(0.8944271909999159, abs=1e-9)

    def test_zero_measure(self):
        assert dual_norm(zero_measure(), 1.0).value == 0.0

    def test_witness_feasible(self):
        rng = np.random.default_rng(0)
        for zeta in (0.5, 1.0):
            mu = random_measure(rng, 12)
            res = dual_norm(mu, zeta)
            g = np.array([v for _, v in res.witness])
            pos = np.array([p for p, _ in res.witness])
            assert np.max(np.abs(g)) <= 1 + 1e-8
            dif = np.abs(g[:, None] - g[None, :])
            dist = np.abs(pos[:, None] - pos[None, :]) ** zeta
            assert np.all(dif <= dist + 1e-8)
            assert float(np.dot(mu.weights, g)) == pytest.approx(res.value, abs=1e-8)


class TestFastPathAgreement:
    """The adjacent-pair reduction must agree with the full LP to 1e-9."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10_000))
    def test_chain_equals_lp(self, n_atoms, seed):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n_atoms)
        full = dual_norm(mu, 1.0, method="lp").value
        fast = dual_norm(mu, 1.0, method="fast").value
        auto = dual_norm(mu, 1.0, method="auto").value
        assert fast == pytest.approx(full, abs=1e-9)
        assert auto == pytest.approx(full, abs=1e-9)

    def test_fast_needs_zeta_one(self):
        with pytest.raises(ValueError):
            dual_norm(dirac(0.5), 0.5, method="fast")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10_000), st.sampled_from([0.3, 0.5, 1.0]))
    def test_closed_forms_match_lp(self, n_atoms, seed, zeta):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n_atoms)
        assert dual_norm(mu, zeta, method="auto").value == pytest.approx(
            dual_norm(mu, zeta, method="lp").value, abs=1e-9
        )


class TestNormProperties:
    def test_probabilities_have_norm_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = random_measure(rng, int(rng.integers(1, 30)), kind="probability")
            for zeta in (0.5, 1.0):
                assert dual_norm(mu, zeta).value == pytest.approx(1.0, abs=1e-9)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            c = float(rng.uniform(-3, 3))
            v = dual_norm(mu, 1.0).value
            assert dual_norm(c * mu, 1.0).value == pytest.approx(abs(c) * v, abs=1e-9)

    def test_subadditivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 15)))
            nu = random_measure(rng, int(rng.integers(1, 15)))
            assert (
                dual_norm(mu + nu, 0.5).value
                <= dual_norm(mu, 0.5).value + dual_norm(nu, 0.5).value + 1e-9
            )

    def test_mass_bounded_by_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            assert abs(mu.total_mass()) <= dual_norm(mu, 1.0).value + 1e-9

    def test_contraction_under_pushforward(self):
        # zero-mass: rate alpha**zeta; with mass: extra |mass| allowance
        rng = np.random.default_rng(5)
        for _ in range(15):
            alpha = float(rng.uniform(0, 0.95))
            b = float(rng.uniform(0, 1 - alpha))
            cmap = lambda y, _a=alpha, _b=b: _a * y + _b
            for zeta in (0.5, 1.0):
                mu = random_measure(rng, int(rng.integers(1, 20)), kind="zero_mass")
                before = dual_norm(mu, zeta).value
                after = dual_norm(pushforward(mu, cmap), zeta).value
                assert after <= alpha**zeta * before + 1e-9
                nu = random_measure(rng, int(rng.integers(1, 20)))
                assert (
                    dual_norm(pushforward(nu, cmap), zeta).value
                    <= alpha**zeta * dual_norm(nu, zeta).value
                    + abs(nu.total_mass())
                    + 1e-9
                )

    def test_weak_contraction_lipschitz_map(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            mu = random_measure(rng, int(rng.integers(1, 20)))
            # 1-Lipschitz into [0, 1]
            out = pushforward(mu, lambda y: 0.3 + 0.7 * np.abs(y - 0.4))
            assert dual_norm(out, 1.0).value <= dual_norm(mu, 1.0).value + 1e-9


class TestDualDistance:
    def test_identical_diracs(self):
        assert dual_distance(dirac(0.5), dirac(0.5), 1.0) == 0.0

    def test_two_point_transport(self):
        for a, b in [(0.1, 0.4), (0.0, 1.0), (0.7, 0.2)]:
            assert dual_distance(dirac(a), dirac(b), 1.0) == pytest.approx(
                min(abs(a - b), 2.0), abs=1e-9
            )

    def test_symmetry_triangle(self):
        rng = np.random.default_rng(7)
        a = random_measure(rng, 8)
        b = random_measure(rng, 8)
        c = random_measure(rng, 8)
        dab = dual_distance(a, b, 0.5)
        assert dab == pytest.approx(dual_distance(b, a, 0.5), abs=1e-9)
        assert dab <= dual_distance(a, c, 0.5) + dual_distance(c, b, 0.5) + 1e-9

    def test_dominates_sampled_lower_bound(self):
        halves = M([(0.25, 0.5), (0.75, 0.5)])
        grid = uniform_atoms(100)
        diff = halves - grid
        lo = lower_bound_sample(diff, 1.0, trials=300)
        assert dual_norm(diff, 1.0).value >= lo - 1e-9


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
                    <= dual_norm(mu, zeta).value + 1e-9
                )
