import numpy as np
import pytest

import ergodykit as ek
from ergodykit.disint import (
    DisintegratedMeasure,
    Observable,
    convert_reference,
    disintegration_holder,
    holder_constant,
    integrate,
    l1_norm,
    linf_norm,
    multiply_observable,
    product_measure,
    s1_norm,
    sinf_norm,
)
from ergodykit.dualnorm import dual_norm
from ergodykit.measures import AtomicSignedMeasure, canonicalize, dirac, uniform_atoms

from conftest import random_measure


@pytest.fixture(scope="module")
def rpf64():
    return ek.build_rpf(ek.linear_expanding(2), ek.Potential.constant(0.0), 64)


def make_dm(rpf, phi1, fibers, reference="nu", zeta=1.0):
    """A measure with the given density whose restriction over cell j is
    phi1[j] * fibers[j]."""
    ref = rpf.nu if reference == "nu" else rpf.m
    phi1 = np.asarray(phi1, dtype=float)
    return DisintegratedMeasure(
        x=rpf.x, ref_masses=ref.copy(), phi1=phi1,
        fibers=tuple(float(p) * f for p, f in zip(phi1, fibers)),
        reference=reference, zeta=zeta,
    )


class TestWeakNorms:
    def test_product_probability_l1(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="nu")
        assert l1_norm(dm) == pytest.approx(1.0, abs=1e-10)

    def test_scaling(self, rpf64):
        dm = product_measure(2.0 * np.ones(64), dirac(0.5), rpf=rpf64, reference="nu")
        assert l1_norm(dm) == pytest.approx(2.0, abs=1e-10)

    def test_zero(self, rpf64):
        dm = make_dm(rpf64, np.zeros(64), [dirac(0.5)] * 64, "nu")
        assert l1_norm(dm) == 0.0

    def test_linf_product(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="m")
        assert linf_norm(dm) == pytest.approx(1.0, abs=1e-10)

    def test_linf_heavy_cell(self, rpf64):
        fibers = [dirac(0.5)] * 64
        fibers[10] = dirac(0.2)
        phi1 = np.ones(64)
        phi1[10] = 3.0
        dm = make_dm(rpf64, phi1, fibers, "m")
        assert linf_norm(dm) == pytest.approx(3.0, abs=1e-10)

    def test_reference_guards(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="nu")
        with pytest.raises(ValueError):
            linf_norm(dm)
        with pytest.raises(ValueError):
            l1_norm(product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="m"))

    def test_norm_ordering_on_probabilities(self, rpf64):
        rng = np.random.default_rng(0)
        for _ in range(10):
            fibers = [random_measure(rng, int(rng.integers(1, 5)), "probability")
                      for _ in range(64)]
            phi1 = rng.uniform(0.2, 2.0, size=64)
            phi1 /= float(np.dot(rpf64.m, phi1))
            dm_m = make_dm(rpf64, phi1, fibers, "m")
            dm_nu = convert_reference(dm_m, rpf64, "nu")
            assert l1_norm(dm_nu) <= linf_norm(dm_m) + 1e-9
            assert l1_norm(dm_nu) <= s1_norm(dm_nu) + 1e-12
            assert linf_norm(dm_m) <= sinf_norm(dm_m) + 1e-12

    def test_mass_bounded_by_l1(self, rpf64):
        rng = np.random.default_rng(1)
        fibers = [random_measure(rng, 3) for _ in range(64)]
        dm = DisintegratedMeasure(
            x=rpf64.x, ref_masses=rpf64.nu.copy(),
            phi1=np.array([f.total_mass() for f in fibers]), fibers=tuple(fibers),
            reference="nu",
        )
        assert abs(dm.total_mass()) <= l1_norm(dm) + 1e-9
        for j in range(64):
            assert abs(dm.phi1[j]) <= dual_norm(dm.fibers[j], 1.0).value + 1e-9


class TestStrongNorms:
    def test_product_delta0(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.0), rpf=rpf64, reference="m")
        assert sinf_norm(dm) == pytest.approx(2.0, abs=1e-10)

    def test_linear_density(self, rpf64):
        dm = make_dm(rpf64, rpf64.x.copy(), [dirac(0.0)] * 64, "m")
        # H(x) = 1 exactly on midpoints, sup phi1 = linf = 1 - h/2
        expected = 1.0 + 2.0 * (1.0 - 0.5 / 64)
        assert sinf_norm(dm) == pytest.approx(expected, abs=1e-10)
        assert abs(sinf_norm(dm) - 3.0) < 2.0 / 64

    def test_zero(self, rpf64):
        dm = make_dm(rpf64, np.zeros(64), [dirac(0.5)] * 64, "nu")
        assert s1_norm(dm) == 0.0


class TestHolderConstant:
    def test_constant_vector(self):
        assert holder_constant(np.ones(32), 1.0) == 0.0

    def test_identity_on_midpoints(self):
        x = (np.arange(64) + 0.5) / 64
        assert holder_constant(x, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_square_against_bruteforce(self):
        n = 64
        x = (np.arange(n) + 0.5) / n
        v = x**2
        got = holder_constant(v, 1.0)
        # independent all-pairs brute force
        best = max(
            abs(v[i] - v[j]) / abs(x[i] - x[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert got == pytest.approx(best, rel=1e-12)
        assert got == pytest.approx(126.0 / 64.0, abs=1e-12)  # max x_i + x_j, i != j


class TestDisintegrationHolder:
    def test_product_measure_exactly_zero(self, rpf64):
        rng = np.random.default_rng(2)
        fib = random_measure(rng, 6, "probability")
        dm = product_measure(np.ones(64), fib, rpf=rpf64, reference="m")
        assert disintegration_holder(dm) == 0.0

    def test_moving_diracs(self, rpf64):
        fibers = [dirac(float(xj)) for xj in rpf64.x]
        dm = make_dm(rpf64, np.ones(64), fibers, "m")
        assert disintegration_holder(dm) == pytest.approx(1.0, abs=1e-12)

    def test_signed_rejected(self, rpf64):
        dm = make_dm(rpf64, np.ones(64), [dirac(0.5, -1.0)] * 64, "m")
        with pytest.raises(ValueError):
            disintegration_holder(dm)


class TestMultiplyObservable:
    def test_identity_observable(self, rpf64):
        rng = np.random.default_rng(3)
        fibers = [random_measure(rng, 4, "probability") for _ in range(64)]
        dm = make_dm(rpf64, rng.uniform(0.5, 2, 64), fibers, "m")
        out = multiply_observable(dm, Observable.constant(1.0))
        assert np.allclose(out.phi1, dm.phi1, atol=1e-14)
        for a, b in zip(out.fibers, dm.fibers):
            assert np.array_equal(a.positions, b.positions)
            assert np.allclose(a.weights, b.weights, atol=1e-14)

    def test_base_only_observable_scales_marginal(self, rpf64):
        psi = Observable(fn=lambda x, y: np.full_like(np.asarray(y, dtype=float),
                                                      np.cos(float(x))),
                         zeta=1.0, holder_bound=2.0)
        dm = product_measure(np.ones(64), uniform_atoms(4), rpf=rpf64, reference="m")
        out = multiply_observable(dm, psi)
        assert np.allclose(out.phi1, np.cos(rpf64.x))
        for c, a, b in zip(np.cos(rpf64.x), out.fibers, dm.fibers):
            assert np.allclose(a.positions, b.positions)
            assert np.allclose(a.weights, c * b.weights)

    def test_integrate_consistency_oracle(self, rpf64):
        # integrate(multiply(mu, s), g) must equal the direct double sum of s*g
        rng = np.random.default_rng(4)
        fibers = [random_measure(rng, 4, "probability") for _ in range(64)]
        dm = make_dm(rpf64, rng.uniform(0.2, 1.5, 64), fibers, "m")
        s = Observable(fn=lambda x, y: np.sin(3 * x) + np.asarray(y, dtype=float),
                       zeta=1.0, holder_bound=3.0)
        g = Observable(fn=lambda x, y: np.cos(2 * x) * np.asarray(y, dtype=float) ** 2,
                       zeta=1.0, holder_bound=4.0)
        out = multiply_observable(dm, s)
        direct = integrate(dm, lambda x, y: np.asarray(s.fn(x, y)) * np.asarray(g.fn(x, y)))
        assert integrate(out, g) == pytest.approx(direct, abs=1e-8)

    def test_mass_identity(self, rpf64):
        rng = np.random.default_rng(5)
        fibers = [random_measure(rng, 3, "probability") for _ in range(64)]
        dm = make_dm(rpf64, rng.uniform(0.2, 1.5, 64), fibers, "m")
        s = Observable(fn=lambda x, y: 0.5 + np.asarray(y, dtype=float) * x,
                       zeta=1.0, holder_bound=3.0)
        out = multiply_observable(dm, s)
        assert integrate(out, Observable.constant(1.0)) == pytest.approx(
            integrate(dm, s), abs=1e-10
        )

    def test_zero_sbar_gives_zero_fiber(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="m")
        s = Observable(fn=lambda x, y: np.zeros_like(np.asarray(y, dtype=float)),
                       zeta=1.0, holder_bound=0.0)
        out = multiply_observable(dm, s)
        assert np.all(out.phi1 == 0.0)
        assert all(f.n_atoms == 0 for f in out.fibers)


class TestIntegrate:
    def test_constant_on_probability(self, rpf64):
        dm = product_measure(np.ones(64), uniform_atoms(8), rpf=rpf64, reference="m")
        assert integrate(dm, Observable.constant(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_y_coordinate(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.3), rpf=rpf64, reference="m")
        assert integrate(dm, Observable.coord_y()) == pytest.approx(0.3, abs=1e-12)

    def test_x_coordinate_midpoint_quadrature(self, rpf64):
        dm = product_measure(np.ones(64), dirac(0.0), rpf=rpf64, reference="nu")
        got = integrate(dm, Observable.coord_x())
        assert got == pytest.approx(0.5, abs=1.0 / 64)


class TestProductMeasure:
    def test_requires_probability_fiber(self, rpf64):
        with pytest.raises(ValueError):
            product_measure(np.ones(64), dirac(0.5, 2.0), rpf=rpf64)

    def test_mass(self, rpf64):
        rng = np.random.default_rng(6)
        dens = rng.uniform(0.1, 2.0, size=64)
        dm = product_measure(dens, dirac(0.5), rpf=rpf64, reference="m")
        assert dm.total_mass() == pytest.approx(float(np.dot(rpf64.m, dens)), abs=1e-12)

    def test_l1_of_positive_density(self, rpf64):
        dens = np.abs(np.sin(5 * np.arange(64)))
        dm = product_measure(dens, dirac(0.5), rpf=rpf64, reference="nu")
        assert l1_norm(dm) == pytest.approx(float(np.dot(rpf64.nu, np.abs(dens))), abs=1e-10)


class TestConversionAndSerialization:
    def test_round_trip_reference(self):
        rpf = ek.build_rpf(ek.manneville_pomeau(0.5),
                           ek.mp_geometric_potential(0.5, 0.1), 64)
        rng = np.random.default_rng(7)
        fibers = [random_measure(rng, 3, "probability") for _ in range(64)]
        dm = make_dm(rpf, rng.uniform(0.5, 2, 64), fibers, "m", zeta=0.5)
        back = convert_reference(convert_reference(dm, rpf, "nu"), rpf, "m")
        assert np.allclose(back.phi1, dm.phi1)
        assert back.total_mass() == pytest.approx(dm.total_mass(), abs=1e-12)
        # the underlying measure is unchanged: same integrals
        g = Observable.coord_y()
        assert integrate(convert_reference(dm, rpf, "nu"), g) == pytest.approx(
            integrate(dm, g), abs=1e-10
        )

    def test_json_round_trip(self, rpf64):
        rng = np.random.default_rng(8)
        fibers = [random_measure(rng, 4) for _ in range(64)]
        dm = DisintegratedMeasure(
            x=rpf64.x, ref_masses=rpf64.m.copy(), phi1=rng.standard_normal(64),
            fibers=tuple(fibers), reference="m",
        )
        d = dm.to_dict()
        assert d["normalized"] is False
        back = DisintegratedMeasure.from_dict(d)
        assert np.allclose(back.phi1, dm.phi1)
        assert back.reference == dm.reference
        for a, b in zip(back.fibers, dm.fibers):
            assert a.to_pairs() == b.to_pairs()
