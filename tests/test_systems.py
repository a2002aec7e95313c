import numpy as np
import pytest

import ergodykit as ek
from ergodykit.baserpf import ConstructionError, Potential, build_rpf
from ergodykit.measures import dirac, pushforward
from ergodykit.systems import (
    check_example_constants,
    fiber_discontinuous,
    fiber_holder,
    fiber_linear,
    fiber_tsujii,
    gallery,
    gallery_entry,
    linear_expanding,
    manneville_pomeau,
)


class TestLinearExpanding:
    def test_preimages_of_half(self):
        base = linear_expanding(2)
        ys = base.preimages(np.array([0.5]))
        assert sorted(ys.ravel().tolist()) == [0.25, 0.75]

    def test_tripling_log3_eigenvalue(self):
        rpf = build_rpf(linear_expanding(3), Potential.constant(-np.log(3.0)), 81)
        assert rpf.lam == pytest.approx(1.0, abs=1e-10)

    def test_branch_lipschitz_exact(self):
        for l in (2, 3, 5):
            base = linear_expanding(l)
            y = np.linspace(0, 1, 100)
            for b in base.branches:
                inv = b.inverse(y)
                quot = np.abs(np.diff(inv)) / np.diff(y)
                assert np.allclose(quot, 1.0 / l)
                assert b.lip_bound == pytest.approx(1.0 / l)

    def test_needs_two_branches(self):
        with pytest.raises(ConstructionError):
            linear_expanding(1)


class TestMannevillePomeau:
    def test_branch0_formula_at_half(self):
        mp = manneville_pomeau(0.5)
        # x (1 + 2**a x**a) at x = 1/2 equals 1 for every a
        assert float(mp.branches[0].forward(np.array([0.5]))[0]) == pytest.approx(1.0)

    def test_branch1_affine(self):
        mp = manneville_pomeau(0.3)
        assert float(mp.branches[1].forward(np.array([0.75]))[0]) == pytest.approx(0.5)

    def test_inverse_residual(self):
        for a in (0.25, 0.5, 0.75):
            mp = manneville_pomeau(a)
            y = np.linspace(0, 1, 1000)
            x = mp.branches[0].inverse(y)
            assert np.max(np.abs(mp.branches[0].forward(x) - y)) <= 1e-12

    def test_parameter_range(self):
        with pytest.raises(ConstructionError):
            manneville_pomeau(1.0)
        with pytest.raises(ConstructionError):
            manneville_pomeau(0.0)

    def test_constants(self):
        mp = manneville_pomeau(0.5)
        assert mp.deg == 2 and mp.q == 1
        assert mp.sigma == 2.0 and mp.L == 1.0
        assert mp.lip_max == 1.0


class TestFiberMaps:
    def test_discontinuous_constants(self):
        f = fiber_discontinuous(0.3, 0.6)
        assert f.alpha == 0.6
        assert f.g_holder == 0.0
        assert float(f(0.25, np.array([1.0]))[0]) == pytest.approx(0.3)
        assert float(f(0.75, np.array([1.0]))[0]) == pytest.approx(0.6)

    def test_tsujii_range_checked(self):
        f = fiber_tsujii(0.5, lambda x: (1 + np.cos(2 * np.pi * np.asarray(x))) / 4)
        ys = np.linspace(0, 1, 33)
        for x in np.linspace(0, 1, 65):
            img = f(float(x), ys)
            assert np.all(img >= -1e-9) and np.all(img <= 1 + 1e-9)

    def test_tsujii_rejects_escaping_band(self):
        # o and alpha whose attracting band exceeds the unit interval after
        # the band rescale cannot exist; instead check bad alpha rejection
        with pytest.raises(ConstructionError):
            fiber_tsujii(1.0, lambda x: np.zeros_like(np.asarray(x)))

    def test_zero_contraction_collapses(self):
        f = fiber_linear(0.0)
        mu = dirac(0.3, 1.0) + dirac(0.9, 2.0)
        out = pushforward(mu, lambda y: f(0.2, y))
        assert out.to_pairs() == [[0.0, 3.0]]

    def test_fiber_holder_pieces(self):
        f = fiber_holder(lambda x: 0.2 + 0.2 * x, lambda x: 0.55 - 0.1 * x,
                         alpha=0.55, g_holder=0.2)
        assert float(f(0.25, np.array([1.0]))[0]) == pytest.approx(0.25)
        assert float(f(0.75, np.array([1.0]))[0]) == pytest.approx(0.475)


def _config_tsujii_fiber():
    from ergodykit.cli import RunConfig, build_system

    cfg = RunConfig(system={"base": "linear", "fiber": "tsujii", "o_c0": 0.3, "o_c1": 0.2})
    return build_system(cfg).fiber


FIBER_MAPS = {e.name: e.build().fiber for e in gallery()}
FIBER_MAPS["config-tsujii"] = _config_tsujii_fiber()


class TestElementwiseFiberMaps:
    """G(xs, ys) on paired arrays equals the scalar-x calls bit for bit."""

    @pytest.mark.parametrize("name", sorted(FIBER_MAPS))
    def test_paired_arrays_match_scalar_calls(self, name):
        f = FIBER_MAPS[name]
        rng = np.random.default_rng(4)
        # the split x = 1/2 of the piecewise maps and both ends included
        xs = np.r_[0.0, 0.5, np.nextafter(0.5, 1.0), 1.0, rng.uniform(0, 1, 200)]
        ys = np.r_[0.0, 1.0, 0.5, 0.5, rng.uniform(0, 1, 200)]
        paired = f(xs, ys)
        scalar = np.array([f(float(x), np.array([y]))[0] for x, y in zip(xs, ys)])
        assert paired.shape == xs.shape
        assert np.array_equal(paired, scalar)
        grid = f(xs[:, None], ys[None, :8])
        assert np.array_equal(grid, np.array([f(float(x), ys[:8]) for x in xs]))

    def test_split_point_takes_left_piece(self):
        assert FIBER_MAPS["mp-discontinuous"](np.array([0.5, 0.75]), np.ones(2)).tolist() == [
            pytest.approx(0.3), pytest.approx(0.6)
        ]


class TestGallery:
    def test_entries_pass_their_reports(self):
        for entry in gallery():
            rep = check_example_constants(entry)
            assert rep.f1_pass, entry.name
            assert rep.f2_pass, entry.name
            assert rep.combined_pass, entry.name
            assert rep.alpha_l_ok, entry.name

    def test_constants_match_declared(self):
        for entry in gallery():
            sys_ = entry.build()
            c = entry.constants
            assert sys_.base.deg == c["deg"]
            assert sys_.base.q == c["q"]
            assert sys_.base.sigma == pytest.approx(c["sigma"])
            assert sys_.base.lip_max == pytest.approx(c["L"])
            assert sys_.alpha == pytest.approx(c["alpha"])
            assert sys_.fiber.g_holder == pytest.approx(c["g_holder"])
            assert sys_.zeta == pytest.approx(c["zeta"])

    def test_mp_flat_lambda_two_at_all_sizes(self):
        sys_ = gallery_entry("mp-discontinuous").build()
        for n in (64, 128, 256):
            rpf = build_rpf(sys_.base, sys_.potential, n)
            assert rpf.lam == pytest.approx(2.0, abs=1e-8)

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            gallery_entry("nope")

    def test_alpha_l_flag_detects_violation(self):
        # alpha = 0.99 with L = 1.2 would break the regularity precondition
        assert 0.99 * 1.2 > 1.0
        sys_ = gallery_entry("tsujii").build()
        assert sys_.regularity_precondition < 1.0
