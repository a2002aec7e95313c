import io
import json
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodykit as ek
from ergodykit import baserpf, disint, dualnorm
from ergodykit.cli import _OBSERVABLES, RunConfig, build_system
from ergodykit.disint import (
    DisintegratedMeasure,
    Observable,
    convert_reference,
    disintegration_holder,
    holder_constant,
    integrate,
    l1_distance,
    l1_norm,
    linf_distance,
    linf_norm,
    multiply_observable,
    product_measure,
    s1_norm,
    sinf_norm,
)
from ergodykit.dualnorm import _dual_norm_lp, distance_value, dual_norm
from ergodykit.measures import (
    AtomicSignedMeasure,
    canonicalize,
    dirac,
    seeded,
    uniform_atoms,
    zero_measure,
)
from ergodykit import transfer
from ergodykit.transfer import _random_zero_average, apply_F_phih_normalized

from conftest import (
    disintegration_holder_all_pairs,
    from_dict_per_cell,
    integrate_loop,
    linf_norm_all_cells,
    multiply_observable_loop,
    product_measure_per_cell,
    random_measure,
    sinf_norms_all_cells,
)


def assert_same_measure(got, want):
    """The two measures hold the same arrays, bit for bit."""
    for field in ("x", "ref_masses", "phi1", "offsets", "positions", "weights"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert (got.reference, got.zeta) == (want.reference, want.zeta)


@pytest.fixture(scope="module")
def rpf64():
    return ek.build_rpf(ek.linear_expanding(2), ek.Potential.constant(0.0), 64)


def make_dm(rpf, phi1, fibers, reference="nu", zeta=1.0):
    """A measure with the given density whose restriction over cell j is
    phi1[j] * fibers[j]."""
    ref = rpf.nu if reference == "nu" else rpf.m
    phi1 = np.asarray(phi1, dtype=float)
    return DisintegratedMeasure.from_fibers(
        x=rpf.x, ref_masses=ref.copy(),
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
        dm = DisintegratedMeasure.from_fibers(
            x=rpf64.x, ref_masses=rpf64.nu.copy(), fibers=tuple(fibers), reference="nu",
        )
        assert abs(dm.total_mass()) <= l1_norm(dm) + 1e-9
        for j in range(64):
            assert abs(dm.phi1[j]) <= dual_norm(dm.fibers[j], 1.0) + 1e-9


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_value_is_nan(self, bad):
        assert np.isnan(holder_constant([bad], 1.0))
        assert np.isnan(holder_constant([bad], 0.5))

    def test_fewer_than_two_finite_values(self):
        assert holder_constant([], 1.0) == 0.0
        assert holder_constant([3.0], 0.5) == 0.0

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

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    def test_coincident_positions(self, zeta):
        pos = [0.1, 0.5, 0.5, 0.9]
        # a tie with equal values adds no constraint
        got = holder_constant([0, 1, 1, 0], zeta, positions=pos)
        assert got == pytest.approx(1.0 / 0.4**zeta, rel=1e-12)
        # a tie with different values is not Holder at all
        assert holder_constant([0, 1, 2, 0], zeta, positions=pos) == np.inf


class TestDisintegrationHolder:
    @pytest.mark.parametrize("steps", [0, 1, 2])
    @pytest.mark.parametrize("name", ["tsujii", "doubling-linear"])
    def test_zeta1_matches_all_pairs(self, name, steps):
        sys_ = ek.gallery_entry(name).build()
        rpf = ek.build_rpf(sys_.base, sys_.potential, 64)
        rng = np.random.default_rng(steps)
        fibers = [random_measure(rng, int(rng.integers(1, 5)), "probability") for _ in range(64)]
        dm = make_dm(rpf, rng.uniform(0.1, 2.0, size=64), fibers, "m")
        for _ in range(steps):
            dm = ek.apply_F_phih_normalized(sys_, rpf, dm)
        ref = dm.ref_masses.copy()
        ref[rng.choice(64, size=8, replace=False)] = 0.0  # skipped cells
        dm = replace(dm, ref_masses=ref)
        idx = np.flatnonzero(ref > 0)
        best = max(
            distance_value(dm.fibers[i], dm.fibers[j], 1.0) / abs(dm.x[i] - dm.x[j])
            for a, i in enumerate(idx)
            for j in idx[a + 1:]
        )
        assert best > 0.0
        assert disintegration_holder(dm, 1.0) == pytest.approx(best, rel=1e-12)

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

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    def test_coincident_midpoints(self, zeta):
        # the tie rule of discrete_holder_constant: cells 0 and 2 share a
        # midpoint, and 1 delta_0.5 against 2 delta_0.5 is at distance 1
        def holder(w2):
            dm = DisintegratedMeasure.from_atoms(
                [0.25, 0.75, 0.25], np.ones(3), [0, 1, 2], [0.5] * 3, [1.0, 2.0, w2], "m", zeta)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return disintegration_holder(dm)

        # equal restrictions add no constraint
        assert holder(1.0) == 1.0 / 0.5**zeta
        # different ones are not Holder at all
        assert holder(1.5) == np.inf


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
                                                      np.cos(x)),
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


def _gallery_measures(name):
    """Measures on a gallery system at n = 32: three normalized steps from a
    two-atom product (positive, several atoms per cell), a random signed
    zero-average measure, and that signed measure with every fourth cell
    emptied and every third cell of zero reference mass."""
    sys_ = ek.gallery_entry(name).build()
    rpf = ek.build_rpf(sys_.base, sys_.potential, 32)
    pos = product_measure(1.0, 0.5 * dirac(0.2) + 0.5 * dirac(0.9), rpf=rpf, zeta=sys_.zeta)
    for _ in range(3):
        pos = apply_F_phih_normalized(sys_, rpf, pos)
    signed = _random_zero_average(rpf, sys_.zeta, seeded(8))
    keep = signed.atom_cells % 4 != 0
    holey = signed.with_atoms(
        signed.atom_cells[keep], signed.positions[keep], signed.weights[keep],
        ref_masses=np.where(np.arange(32) % 3 == 0, 0.0, signed.ref_masses),
    )
    return {"positive": pos, "signed": signed, "holey": holey}


GALLERY_MEASURES = {e.name: _gallery_measures(e.name) for e in ek.gallery()}


class TestObservableArrayCall:
    """``integrate`` and ``multiply_observable`` call the observable once on
    every atom and sum cell by cell; the per-cell loops they replaced
    (``conftest.integrate_loop`` / ``multiply_observable_loop``) agree."""

    @pytest.mark.parametrize("obs", sorted(_OBSERVABLES))
    @pytest.mark.parametrize("kind", ["positive", "signed", "holey"])
    @pytest.mark.parametrize("system", sorted(GALLERY_MEASURES))
    def test_matches_per_cell_loops(self, system, kind, obs):
        dm = GALLERY_MEASURES[system][kind]
        g = _OBSERVABLES[obs](dm.zeta)
        assert integrate(dm, g) == pytest.approx(integrate_loop(dm, g), rel=0, abs=1e-12)
        got, want = multiply_observable(dm, g), multiply_observable_loop(dm, g)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.weights, want.weights)
        mass = [f.total_mass() for f in want.fibers]
        assert np.allclose(got.phi1, mass, rtol=0, atol=1e-12)
        assert np.array_equal(got.ref_masses, dm.ref_masses)

    def test_zero_reference_mass_cells_add_nothing(self):
        dm = GALLERY_MEASURES["tsujii"]["holey"]
        dead = dm.ref_masses == 0.0
        x_dead = dm.x[dead]
        g = Observable(fn=lambda x, y: np.where(np.isin(x, x_dead), np.nan, y), name="nan")
        got = integrate(dm, g)
        assert np.isfinite(got)
        assert got == pytest.approx(integrate_loop(dm, g), rel=0, abs=1e-12)

    def test_observable_called_once(self):
        dm = GALLERY_MEASURES["tsujii"]["holey"]
        shapes = []

        def fn(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return np.asarray(y, dtype=float)

        obs = Observable(fn=fn)
        integrate(dm, obs)
        live = int(np.count_nonzero(dm.ref_masses[dm.atom_cells] > 0))
        assert shapes == [((live,), (live,))]
        multiply_observable(dm, obs)
        assert shapes[1:] == [((dm.positions.size,), (dm.positions.size,))]

    @pytest.mark.parametrize("fn", [integrate, multiply_observable])
    def test_non_elementwise_observable_raises(self, rpf64, fn):
        first = Observable(fn=lambda x, y: np.asarray(y, dtype=float)[:1], name="first")
        dm = product_measure(np.ones(64), uniform_atoms(4), rpf=rpf64, reference="m")
        with pytest.raises(ValueError, match="'first'.*elementwise"):
            fn(dm, first)


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

    @staticmethod
    def _fibers(rng):
        """Probability fibers: a Dirac, positive and signed ones, and
        non-canonical ones (unsorted, coincident and zero-weight atoms,
        atoms that cancel, weights that underflow against 1e-320)."""
        signed = rng.standard_normal(5)
        signed[-1] = 1.0 - signed[:-1].sum()
        merged = rng.uniform(0.1, 1.0, 5)  # coincident atoms, summed after scaling
        return [
            dirac(1.0),
            random_measure(rng, 6, "probability"),
            AtomicSignedMeasure(rng.uniform(0, 1, 5), signed),
            dirac(0.2, 1.5) + dirac(0.7, -0.5),
            AtomicSignedMeasure([0.5, 0.25, 0.5, 0.75, 0.25, 1.0 + 5e-13],
                                [0.3, 0.2, 0.3, 0.0, 0.2, 0.0]),
            AtomicSignedMeasure([0.6, 0.1, 0.6, 0.1], [2.0, 1e-5, -1.0, -1e-5]),
            AtomicSignedMeasure([0.3, 0.9], [1.0 - 1e-300, 1e-300]),
            AtomicSignedMeasure([0.4, 0.8, 0.4, 0.4, 0.8], merged / merged.sum()),
        ]

    @pytest.mark.parametrize("name", [e.name for e in ek.gallery()])
    def test_matches_per_cell_oracle(self, name):
        # bit for bit the measure built from float(dens[j]) * fiber cell by cell
        sys_ = ek.gallery_entry(name).build()
        rpf = ek.build_rpf(sys_.base, sys_.potential, 24)
        rng = np.random.default_rng(13)
        dens = rng.uniform(-1.0, 2.0, rpf.n)
        dens[::5] = 0.0
        dens[[3, 7]] = [1e-320, -1e-320]
        dens[11] = -0.0
        for fib in self._fibers(rng):
            for d in (1.0, 0.0, dens, np.ones(rpf.n)):
                for reference in ("m", "nu"):
                    assert_same_measure(
                        product_measure(d, fib, rpf=rpf, reference=reference, zeta=sys_.zeta),
                        product_measure_per_cell(d, fib, rpf=rpf, reference=reference,
                                                 zeta=sys_.zeta),
                    )

    @pytest.mark.parametrize("size", [63, 65])
    def test_density_of_wrong_length_raises(self, rpf64, size):
        for build in (product_measure, product_measure_per_cell):
            with pytest.raises(ValueError):
                build(np.ones(size), dirac(0.5), rpf=rpf64)


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
        dm = DisintegratedMeasure.from_fibers(
            x=rpf64.x, ref_masses=rpf64.m.copy(), fibers=tuple(fibers), reference="m",
        )
        d = dm.to_dict()
        assert d["normalized"] is False
        back = DisintegratedMeasure.from_dict(d)
        assert np.allclose(back.phi1, dm.phi1)
        assert back.reference == dm.reference
        for a, b in zip(back.fibers, dm.fibers):
            assert a.to_pairs() == b.to_pairs()


class TestFromDict:
    """``from_dict`` reads straight into the flat layout, with the arrays
    the per-cell reader built."""

    @staticmethod
    def _payloads():
        rng = np.random.default_rng(12)
        n = 24
        fibers = []
        for j in range(n):
            k = int(rng.integers(0, 6))
            pos = np.round(rng.uniform(0, 1, k), 1)  # coincident atoms merge
            if j == 4:
                pos = np.r_[pos, -5e-13, 0.0, 1.0 + 5e-13]  # clipped before merging
            w = rng.standard_normal(pos.size)
            if j == 5 and pos.size:
                w[:] = 0.0  # zero weights drop
            fibers.append([[float(a), float(b)] for a, b in zip(pos, w)])
        fibers[7] = [[0.25, 1e-300], [0.75, -2.0]]
        # phi1[j] is the mass of fiber j, summed as written
        phi1 = [sum(w for _, w in f) for f in fibers]
        common = {"n": n, "reference": "m", "zeta": 0.5, "x": ((np.arange(n) + 0.5) / n).tolist(),
                  "ref_masses": np.full(n, 1.0 / n).tolist(), "phi1": phi1,
                  "fibers": fibers}
        return {"restrictions": dict(common, normalized=False),
                "unit-mass": dict(common, normalized=True),
                "no-key": common}

    @pytest.mark.parametrize("kind", ["restrictions"])
    def test_matches_per_cell_reader(self, kind):
        d = self._payloads()[kind]
        assert_same_measure(DisintegratedMeasure.from_dict(d), from_dict_per_cell(d))

    @pytest.mark.parametrize("kind", ["unit-mass", "no-key"])
    def test_refuses_unit_mass_files(self, kind):
        # a file of unit-mass fibers, or one that does not say how its
        # fibers are stored, is refused, by the per-cell reader too
        d = self._payloads()[kind]
        with pytest.raises(ValueError, match="normalized"):
            DisintegratedMeasure.from_dict(d)
        with pytest.raises(ValueError, match="unit-mass"):
            from_dict_per_cell(d)

    @pytest.mark.parametrize("change, match", [
        ({"normalized": 0}, "normalized"),
        ({"zeta": None}, "missing \\['zeta'\\]"),
        ({"n": None}, "missing \\['n'\\]"),
        ({"n": 23}, "n = 23 for 24 fibers"),
        ({"extra": 1}, "unknown \\['extra'\\]"),
    ])
    def test_reads_exactly_the_written_keys(self, change, match):
        d = dict(self._payloads()["restrictions"], **change)
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ValueError, match=match):
            DisintegratedMeasure.from_dict(d)

    @pytest.mark.parametrize("kind", ["positive", "signed", "holey"])
    @pytest.mark.parametrize("system", sorted(GALLERY_MEASURES))
    def test_round_trip_keeps_phi1_bytes(self, system, kind):
        dm = GALLERY_MEASURES[system][kind]
        d = json.loads(json.dumps(dm.to_dict()))
        back = DisintegratedMeasure.from_dict(d)
        assert np.array(d["phi1"]).tobytes() == dm.phi1.tobytes() == back.phi1.tobytes()

    @pytest.mark.parametrize("change, ok", [
        (lambda v: v * (1.0 + 1e-12), True),
        (lambda v: v + 1e-12, True),
        (lambda v: v * (1.0 + 1e-6) + 1e-6, False),
        (lambda v: float("nan"), False),
    ])
    def test_phi1_must_be_the_mass_of_its_fiber(self, change, ok):
        # within 1e-9 (1 + total variation) of the fiber's mass, or refused
        # with the cell named
        d = self._payloads()["restrictions"]
        d["phi1"][11] = change(d["phi1"][11])
        if ok:
            DisintegratedMeasure.from_dict(d)
        else:
            with pytest.raises(ValueError, match=r"phi1\[11\].*cell 11"):
                DisintegratedMeasure.from_dict(d)

    def test_round_trip_of_an_iterate(self):
        sys_ = build_system(RunConfig(system=dict(
            base="linear", l=2, fiber="tsujii", alpha=0.5, zeta=0.5)))
        rpf, (a, _) = _system_iterates(sys_, 12, [], "signed", 0.5, steps=3)
        back = DisintegratedMeasure.from_dict(a.to_dict())
        for field in ("phi1", "offsets", "positions", "weights"):
            assert getattr(back, field).tobytes() == getattr(a, field).tobytes()

    @pytest.mark.parametrize("fibers, phi1, match", [
        ([[[0.5, 1.0, 2.0]], []], [1.0, 1.0], "pairs"),
        ([[[0.5]], []], [1.0, 1.0], "pairs"),
        ([[[0.5, 1.0], [0.5]], []], [1.0, 1.0], None),
        ([[[1.5, 1.0]], []], [1.0, 1.0], "outside"),
        ([[[float("nan"), 1.0]], []], [1.0, 1.0], "finite"),
        ([[[0.5, 1.0]], []], [1.0], "phi1"),
        ([[[0.5, 1.0]], 3], [1.0, 1.0], None),
    ])
    def test_malformed_fibers_raise_value_error(self, fibers, phi1, match):
        d = {"n": 2, "reference": "m", "zeta": 1.0, "normalized": False, "x": [0.25, 0.75],
             "ref_masses": [0.5, 0.5], "phi1": phi1, "fibers": fibers}
        with pytest.raises((ValueError, TypeError), match=match):
            DisintegratedMeasure.from_dict(d)


class TestStreamedJson:
    """``write_json`` writes, chunk by chunk from the flat arrays, the bytes
    of ``json.dumps(to_dict(), indent=1, sort_keys=True)`` and a newline,
    and ``from_dict`` reads them back to the same arrays."""

    @staticmethod
    def _check(dm):
        buf = io.StringIO()
        dm.write_json(buf)
        text = buf.getvalue()
        assert text == json.dumps(dm.to_dict(), indent=1, sort_keys=True) + "\n"
        back = DisintegratedMeasure.from_dict(json.loads(text))
        for field in ("x", "ref_masses", "phi1", "offsets", "positions", "weights"):
            assert getattr(back, field).tobytes() == getattr(dm, field).tobytes(), field
        assert (back.reference, back.zeta) == (dm.reference, dm.zeta)
        return text

    def _check_every_chunk_size(self, dm, monkeypatch):
        """The same text for chunks of one atom, of the largest cell and of
        every atom (and of the default size)."""
        texts = {self._check(dm)}
        largest = int(np.diff(dm.offsets).max(initial=0))
        for chunk in (1, largest, dm.positions.size):
            monkeypatch.setattr(disint, "_JSON_CHUNK_ATOMS", max(chunk, 1))
            texts.add(self._check(dm))
        assert len(texts) == 1

    @pytest.mark.parametrize("name", [e.name for e in ek.gallery()])
    def test_gallery_iterates(self, name, monkeypatch):
        sys_ = ek.gallery_entry(name).build()
        rpf = ek.build_rpf(sys_.base, sys_.potential, 16)
        dm = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)
        for _ in range(3):
            dm = ek.apply_F_phih_normalized(sys_, rpf, dm)
        self._check_every_chunk_size(dm, monkeypatch)

    def test_signed_measure_with_empty_fibers(self, monkeypatch):
        rpf, (dm, _) = _iterates("tsujii", "signed")
        assert (dm.weights < 0).any() and (dm.weights > 0).any()
        rng = np.random.default_rng(3)
        fibers = list(dm.fibers)
        for j in (0, 5, 6, 31):  # the first, two adjacent and the last cell
            fibers[j] = zero_measure()
        fibers[7] = random_measure(rng, 9)
        dm = DisintegratedMeasure.from_fibers(
            dm.x, dm.ref_masses, fibers, dm.reference, dm.zeta
        )
        self._check_every_chunk_size(dm, monkeypatch)

    @pytest.mark.parametrize("atoms", [0, 1, 3])
    def test_one_cell(self, atoms, monkeypatch):
        pos = np.linspace(0.0, 1.0, atoms)
        dm = DisintegratedMeasure(
            x=[0.5], ref_masses=[1.0], offsets=[0, atoms],
            positions=pos, weights=np.ones(atoms), reference="nu",
        )
        self._check_every_chunk_size(dm, monkeypatch)

    def test_no_cells(self):
        dm = DisintegratedMeasure(
            x=[], ref_masses=[], offsets=[0], positions=[], weights=[],
            reference="m",
        )
        self._check(dm)

    def test_reprs_that_switch_form(self, monkeypatch):
        # exponent forms, the smallest subnormal and a negative zero, in
        # every array the file holds
        odd = [1e-05, 1e+16, 5e-324, -0.0, 0.1, 123456789.0, 1e22, -2.5e-300]
        dm = DisintegratedMeasure(
            x=odd, ref_masses=[abs(v) for v in odd],
            offsets=[0, 3, 3, 3, 5, 5, 6, 6, 7],
            positions=[-0.0, 5e-324, 1e-05, 1e-05, 0.1, 1.0, 5e-324],
            weights=[1e+16, -1e-05, 5e-324, -5e-324, 1e22, -0.1, 2.0],
            reference="m", zeta=1e-05,
        )
        text = self._check(dm)
        for spelling in ("1e-05", "1e+16", "5e-324", "-0.0", "1e+22", "-2.5e-300"):
            assert spelling in text
        self._check_every_chunk_size(dm, monkeypatch)


def _lp_norm(mu, zeta=1.0):
    """Dual norm by the all-pairs LP oracle."""
    return _dual_norm_lp(mu, zeta)[0]


def _iterates(name, kind, steps=2):
    """Two consecutive iterates on 32 cells, with four cells of zero m-mass."""
    return _system_iterates(ek.gallery_entry(name).build(), 32, [3, 4, 17, 30], kind, 1.0, steps)


def _system_iterates(sys_, n, zero_cells, kind, zeta, steps=2):
    """Two consecutive iterates of ``sys_`` on n cells, zero m-mass on ``zero_cells``."""
    rpf = ek.build_rpf(sys_.base, sys_.potential, n)
    rng = np.random.default_rng(5)
    if kind == "positive":
        fibers = [random_measure(rng, int(rng.integers(1, 5)), "probability") for _ in range(n)]
        dm = make_dm(rpf, rng.uniform(0.1, 2.0, size=n), fibers, "m", zeta)
    else:
        dm = _random_zero_average(rpf, zeta, seeded(5))
    ref = rpf.m.copy()
    ref[zero_cells] = 0.0
    seq = [dm]
    for _ in range(steps):
        seq.append(ek.apply_F_phih_normalized(sys_, rpf, seq[-1]))
    return rpf, [replace(d, ref_masses=ref) for d in seq[-2:]]


class TestBatchedZetaOne:
    """At zeta = 1 every disint norm equals a per-cell LP loop."""

    @pytest.mark.parametrize("kind", ["positive", "signed"])
    @pytest.mark.parametrize("name", ["tsujii", "doubling-linear"])
    def test_matches_per_cell_lp(self, name, kind):
        rpf, (a, b) = _iterates(name, kind)
        cells = np.flatnonzero(a.ref_masses > 0)
        dist = np.array([_lp_norm(a.fibers[j] - b.fibers[j]) for j in cells])
        norm = np.array([_lp_norm(a.fibers[j]) for j in cells])
        assert dist.max() > 0.0
        assert linf_distance(a, b, 1.0) == pytest.approx(dist.max(), abs=1e-9)
        assert l1_distance(a, b, 1.0) == pytest.approx(
            float(np.dot(a.ref_masses[cells], dist)), abs=1e-9
        )
        assert linf_norm(a, 1.0) == pytest.approx(norm.max(), abs=1e-9)
        a_nu = convert_reference(a, rpf, "nu")
        nu_cells = np.flatnonzero(a_nu.ref_masses > 0)
        assert l1_norm(a_nu, 1.0) == pytest.approx(
            sum(a_nu.ref_masses[j] * _lp_norm(a_nu.fibers[j]) for j in nu_cells), abs=1e-9
        )
        if kind == "positive":
            pairs = zip(cells[:-1], cells[1:])  # midpoints increase with the index
            holder = max(
                _lp_norm(a.fibers[i] - a.fibers[j]) / (a.x[j] - a.x[i]) for i, j in pairs
            )
            assert disintegration_holder(a, 1.0) == pytest.approx(holder, abs=1e-9)

    @pytest.mark.parametrize("kind", ["positive", "signed"])
    def test_exact_fixed_point_is_zero(self, kind):
        # a fixed point reached exactly in floating point has distance 0.0
        _, (a, _) = _iterates("tsujii", kind)
        same = DisintegratedMeasure.from_fibers(
            a.x, a.ref_masses,
            [AtomicSignedMeasure(f.positions.copy(), f.weights.copy()) for f in a.fibers],
            a.reference, a.zeta,
        )
        assert linf_distance(a, same) == 0.0
        assert l1_distance(a, same) == 0.0


class TestBatchedZetaHalf:
    """At zeta = 0.5 every disint norm equals a per-cell (or per-pair) LP loop.

    The system is the ``reg-holder05-12`` benchmark configuration: linear
    base, tsujii fiber with alpha = 0.5, zeta = 0.5, 12 cells.
    """

    Z = 0.5

    @pytest.fixture(scope="class")
    def system(self):
        return build_system(RunConfig(system=dict(
            base="linear", l=2, fiber="tsujii", alpha=0.5, zeta=self.Z,
        )))

    @pytest.mark.parametrize("kind", ["positive", "signed"])
    def test_matches_per_cell_lp(self, system, kind):
        z = self.Z
        rpf, (a, b) = _system_iterates(system, 12, [3, 8], kind, z)
        cells = np.flatnonzero(a.ref_masses > 0)
        dist = np.array([_lp_norm(a.fibers[j] - b.fibers[j], z) for j in cells])
        norm = np.array([_lp_norm(a.fibers[j], z) for j in cells])
        assert dist.max() > 0.0
        assert linf_distance(a, b, z) == pytest.approx(dist.max(), abs=1e-9)
        assert l1_distance(a, b, z) == pytest.approx(
            float(np.dot(a.ref_masses[cells], dist)), abs=1e-9
        )
        assert linf_norm(a, z) == pytest.approx(norm.max(), abs=1e-9)
        a_nu = convert_reference(a, rpf, "nu")
        nu_cells = np.flatnonzero(a_nu.ref_masses > 0)
        assert l1_norm(a_nu, z) == pytest.approx(
            sum(a_nu.ref_masses[j] * _lp_norm(a_nu.fibers[j], z) for j in nu_cells), abs=1e-9
        )
        if kind == "positive":
            holder = max(
                _lp_norm(a.fibers[i] - a.fibers[j], z) / abs(a.x[j] - a.x[i]) ** z
                for k, i in enumerate(cells) for j in cells[k + 1:]
            )
            assert disintegration_holder(a) == pytest.approx(holder, abs=1e-9)
            assert disintegration_holder(a, z) == disintegration_holder(a)
            # block pairs of 5 cells, their pairs in runs of about 100 atoms:
            # several batched calls
            with (mock.patch.object(disint, "_PAIR_BLOCK_ATOMS", 100),
                  mock.patch.object(baserpf, "_HOLDER_BLOCK_POINTS", 1)):
                assert disintegration_holder(a) == pytest.approx(holder, abs=1e-9)

    def test_zero_mass_cells_are_skipped(self, system):
        _, (a, b) = _system_iterates(system, 12, list(range(1, 12)), "signed", self.Z)
        want = _lp_norm(a.fibers[0] - b.fibers[0], self.Z)
        assert linf_distance(a, b, self.Z) == pytest.approx(want, abs=1e-9)
        _, (p, _) = _system_iterates(system, 12, list(range(1, 12)), "positive", self.Z)
        assert disintegration_holder(p) == 0.0


class TestPrunedHolder:
    """At zeta < 1 ``disintegration_holder`` walks block pairs of cells,
    bounds the pairs of each block pair it evaluates, and computes exact
    distances only where a bound beats the best quotient; the result is
    the all-pairs maximum bit for bit."""

    @pytest.fixture(scope="class")
    def system(self):
        # the reg-holder05-12 benchmark system: linear base, tsujii fiber
        # with alpha = 0.5, zeta = 0.5
        return build_system(RunConfig(system=dict(
            base="linear", l=2, fiber="tsujii", alpha=0.5, zeta=0.5,
        )))

    @staticmethod
    def _equilibrium(sys_, n, steps=20, fiber=dirac(1.0)):
        rpf = ek.build_rpf(sys_.base, sys_.potential, n)
        dm0 = product_measure(1.0, fiber, rpf=rpf, reference="m", zeta=sys_.zeta)
        return ek.iterate_to_equilibrium(sys_, rpf, dm0, tol=0.0, max_iter=steps)[0]

    @pytest.mark.parametrize("n", [12, 24, 48, 65, 256])  # one block up to 64 cells
    def test_holder05_system_matches_all_pairs(self, system, n):
        mu = self._equilibrium(system, n)
        assert np.diff(mu.offsets).mean() > 20  # the level DP is exercised
        want = disintegration_holder_all_pairs(mu)
        assert want > 0.0
        assert disintegration_holder(mu) == want

    @pytest.mark.parametrize("name", [e.name for e in ek.gallery() if e.build().zeta < 1])
    def test_gallery_matches_all_pairs(self, name):
        # the regularity command's iterate, and an earlier one of several
        # atoms per cell (mp-discontinuous's quotients are at rounding
        # level), in one block of 64 cells and in two of 65
        sys_ = ek.gallery_entry(name).build()
        for n in (64, 65):
            for mu in (self._equilibrium(sys_, n, steps=12),
                       self._equilibrium(sys_, n, steps=4, fiber=uniform_atoms(5))):
                assert disintegration_holder(mu) == disintegration_holder_all_pairs(mu)

    def test_block_edges_crossed(self, system, monkeypatch):
        mu = self._equilibrium(system, 24)
        calls = []
        real = disint._norm_bounds
        monkeypatch.setattr(disint, "_norm_bounds",
                            lambda *a: calls.append(a[0]) or real(*a))
        monkeypatch.setattr(disint, "_PAIR_BLOCK_ATOMS", 150)
        monkeypatch.setattr(baserpf, "_HOLDER_BLOCK_POINTS", 1)  # 5 blocks of 5 cells
        assert disintegration_holder(mu) == disintegration_holder_all_pairs(mu)
        # the live pairs of the block pairs walked were bounded in runs of
        # about 150 atoms, one call each
        assert len(calls) > 10 and set(calls) == {0.5}

    def test_rounding_level_transport_needs_the_slack(self):
        # A = 2 delta_0 against B = delta_9e-17: the transport part of their
        # distance, 9e-17, is below the rounding of the zeta = 1 distance
        # 1 + 9e-17, which reads as 1.0, while the exact zeta = 1/2 distance
        # is 1 + (9e-17)**0.5, about 1 + 9.5e-9
        dm = DisintegratedMeasure.from_atoms(
            [0.25, 0.0, 0.75], np.ones(3), [0, 1, 2, 2],
            [0.0, 9e-17, 0.2, 0.8], [2.0, 1.0, 1.0, 1.0], "m", 0.5,
        )
        d1 = disint._fiber_norms(1.0, dm, [0], dm, [1])[0]
        exact = disint._fiber_norms(0.5, dm, [0], dm, [1])[0]
        assert d1 == 1.0 and exact > 1.0 + 9e-9
        # slack added to M and to the whole, but not inside the power, would
        # leave the bound below the distance
        slack = dualnorm._BOUND_SLACK
        assert (1.0 + slack) * (d1 + 3.0 * slack) < exact
        assert dualnorm._jensen_bounds(2.0, 1.0, d1, 0.5) >= exact
        assert disintegration_holder(dm) == disintegration_holder_all_pairs(dm)

    def test_cells_in_any_order(self, monkeypatch):
        # the neighbour sums of the first bounds follow midpoint order, not
        # cell order: shuffled cells are pruned as well as sorted ones (on
        # this iterate one exact distance of the 2016 pairs settles it)
        mu = self._equilibrium(ek.gallery_entry("mp-geometric-holder").build(), 64,
                               steps=4, fiber=uniform_atoms(5))
        perm = np.random.default_rng(3).permutation(mu.n)
        shuffled = DisintegratedMeasure.from_fibers(
            mu.x[perm], mu.ref_masses[perm], [mu.fiber(k) for k in perm],
            "m", mu.zeta,
        )
        # the exact zeta < 1 distances: every one from the ``norms`` of
        # ``_norm_bounds``, and none from ``_fiber_norms``
        real_fiber, real_bounds = disint._fiber_norms, disint._norm_bounds
        exact = []

        def fiber_counted(z, a, ia, b, ib):
            if z < 1:
                exact.extend(ia)
            return real_fiber(z, a, ia, b, ib)

        def bounds_counted(*args):
            lower, upper, norms = real_bounds(*args)
            return lower, upper, lambda k: exact.extend(np.atleast_1d(k)) or norms(k)

        for dm in (mu, shuffled):
            exact.clear()
            with monkeypatch.context() as m:
                m.setattr(disint, "_fiber_norms", fiber_counted)
                m.setattr(disint, "_norm_bounds", bounds_counted)
                got = disintegration_holder(dm)
            assert got == disintegration_holder_all_pairs(dm)
            assert 1 <= len(exact) <= 20

    @pytest.mark.parametrize("z", [0.5, 0.2])
    def test_bounds_hold_for_every_pair(self, system, z, monkeypatch):
        mu = self._equilibrium(system, 256)
        idx = np.flatnonzero(mu.ref_masses > 0)
        i, j = (idx[k] for k in np.triu_indices(idx.size, k=1))
        mass = np.bincount(mu.atom_cells, weights=mu.weights, minlength=mu.n)
        d1, exact = (np.concatenate([disint._fiber_norms(e, mu, i[k:k + 2048], mu, j[k:k + 2048])
                                     for k in range(0, i.size, 2048)]) for e in (1.0, z))
        assert np.all(dualnorm._jensen_bounds(mass[i], mass[j], d1, z) >= exact)
        # the block-pair bounds disintegration_holder gives the walk, recorded
        # as the walk reads them
        seen = {}
        real = baserpf._holder_block_walk

        def walk(x, zeta, rows, bound, evaluate):
            def kept(rs, cells, a, b):
                seen.update(x=x, cells=cells, a=a, b=b, bound=bound(rs, cells, a, b))
                return seen["bound"]
            return real(x, zeta, rows, kept, evaluate)

        monkeypatch.setattr(disint, "_holder_block_walk", walk)
        assert disintegration_holder(mu, z) == disintegration_holder_all_pairs(mu, z)
        x, cells, a, b = seen["x"], seen["cells"], seen["a"], seen["b"]
        assert cells.shape[0] >= 2
        # the block pair of every pair (its cells in midpoint order), and the
        # smallest separation of its pairs, over which the walk divides at most
        pi, pj = np.searchsorted(x, mu.x[i]), np.searchsorted(x, mu.x[j])
        pi, pj = np.minimum(pi, pj), np.maximum(pi, pj)
        block = np.full(2 * cells.shape[:1], -1)
        block[a, b] = np.arange(a.size)
        p = block[pi // cells.shape[1], pj // cells.shape[1]]
        assert np.all(p >= 0)
        step = np.diff(x[cells], axis=1)
        step[step <= 0.0] = np.inf
        gap = np.where(a == b, step.min(axis=1)[a], x[cells[b, 0]] - x[cells[a, -1]])
        assert np.all(exact <= seen["bound"][0, p])
        assert np.all(exact / (x[pj] - x[pi]) ** z <= seen["bound"][0, p] / gap[p] ** z)

    def test_memory_is_bounded(self):
        # the pairs' bounds are never held all at once: one call at
        # n = 2048 peaked at 145 MB under tracemalloc when they were
        mu = self._equilibrium(ek.gallery_entry("mp-discontinuous").build(), 2048, steps=12)
        tracemalloc.start()
        try:
            disintegration_holder(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20


def _holder05_system(zeta=0.5):
    # the reg-holder05-12 benchmark system: linear base, tsujii fiber with
    # alpha = 0.5, zeta = 0.5
    return build_system(RunConfig(system=dict(
        base="linear", l=2, fiber="tsujii", alpha=0.5, zeta=zeta,
    )))


def _gap_trials(sys_, n, steps=12, trials=5, seed=0):
    """The stacked signed trials of ``estimate_spectral_gap`` on n cells:
    the start and every step."""
    rpf = ek.build_rpf(sys_.base, sys_.potential, n)
    big = transfer._side_by_side(rpf, trials)
    rng = seeded(seed)
    seq = [transfer._stack(
        [_random_zero_average(rpf, sys_.zeta, rng) for _ in range(trials)], big)]
    delta = transfer.homogeneous_delta(transfer.DEFAULT_COMPRESS_DELTA, transfer.DEFAULT_ATOM_CAP)
    for _ in range(steps):
        seq.append(apply_F_phih_normalized(sys_, big, seq[-1], delta))
    return seq


def _equilibrium_iterates(sys_, n, steps):
    """Positive iterates of the equilibrium iteration on n cells, every step."""
    rpf = ek.build_rpf(sys_.base, sys_.potential, n)
    seq = [product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)]
    for _ in range(steps):
        seq.append(apply_F_phih_normalized(sys_, rpf, seq[-1]))
    return seq


def assert_same_maxima(dm, blocks=1, zeta=None):
    """``_sinf_norms`` and ``linf_norm`` give the all-cells values bit for bit."""
    got = disint._sinf_norms(dm, blocks, zeta)
    assert got.tobytes() == sinf_norms_all_cells(dm, blocks, zeta).tobytes()
    assert linf_norm(dm, zeta) == linf_norm_all_cells(dm, zeta)


class TestPrunedMaxima:
    """``_sinf_norms`` and ``linf_norm`` bound every cell and compute exact
    norms only for the cells whose bound can reach the best norm of their
    run; the results are those of the all-cells evaluation bit for bit."""

    @pytest.mark.parametrize("name", [e.name for e in ek.gallery()])
    def test_gallery_systems(self, name):
        sys_ = ek.gallery_entry(name).build()
        for dm in _gap_trials(sys_, 32):
            assert_same_maxima(dm, 5)
        for dm in _equilibrium_iterates(sys_, 32, 8):
            assert_same_maxima(dm)

    @pytest.mark.parametrize("n", [12, 64])
    def test_holder05_system(self, n):
        sys_ = _holder05_system()
        for dm in _gap_trials(sys_, n):
            assert_same_maxima(dm, 5)
        iterates = _equilibrium_iterates(sys_, n, 12)
        assert np.diff(iterates[-1].offsets).mean() > 20  # the level DP is exercised
        for dm in iterates:
            assert_same_maxima(dm)

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    def test_gap_trials_each_zeta(self, zeta, monkeypatch):
        # the same trials at both exponents, with the exact norms counted:
        # each call evaluates in two rounds and leaves cells out
        real = disint._norm_bounds
        evaluated = []

        def counted(z, dm, idx):
            lower, upper, norms = real(z, dm, idx)
            return lower, upper, lambda k: evaluated.append(np.size(k)) or norms(k)

        monkeypatch.setattr(disint, "_norm_bounds", counted)
        seq = _gap_trials(_holder05_system(zeta), 64)
        for dm in seq:
            assert_same_maxima(dm, 5)
        # two rounds per call, two calls (sinf and linf) per measure
        assert len(evaluated) == 2 * 2 * len(seq)
        cells = sum(int(np.sum(dm.ref_masses > 0)) for dm in seq)
        assert sum(evaluated) < 0.5 * 2 * cells

    @pytest.mark.parametrize("zeta", [1.0, 0.5, 0.2])
    def test_bounds_hold_for_every_cell(self, zeta):
        for dm in _gap_trials(_holder05_system(), 24) + [self._edge_measure(zeta)]:
            idx = np.flatnonzero(dm.ref_masses > 0)
            lower, upper, norms = disint._norm_bounds(zeta, dm, idx)
            exact = disint._fiber_norms(zeta, dm, idx)
            assert norms(np.arange(idx.size)).tobytes() == exact.tobytes()
            assert np.all(lower <= exact) and np.all(exact <= upper)

    @staticmethod
    def _edge_measure(zeta):
        """Eight cells in two runs of four: an empty fiber, a fiber of zero
        mass, two identical fibers (tied maxima, one in each run), a
        zero-reference-mass cell holding the largest fiber, and
        2 delta_0 - delta_9e-17, whose transport part lies below the
        rounding of its zeta = 1 norm."""
        cells = [
            [],
            [(0.2, 0.5), (0.7, -0.5)],
            [(0.1, 1.5), (0.6, -0.25)],
            [(0.0, 5.0), (1.0, -5.0)],
            [(0.0, 2.0), (9e-17, -1.0)],
            [(0.1, 1.5), (0.6, -0.25)],
            [(0.3, 0.25)],
            [],
        ]
        ref = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0])
        cell = np.repeat(np.arange(8), [len(c) for c in cells])
        return DisintegratedMeasure.from_atoms(
            np.tile([0.125, 0.375, 0.625, 0.875], 2), ref, cell,
            [p for c in cells for p, _ in c], [w for c in cells for _, w in c], "m", zeta,
        )

    @pytest.mark.parametrize("zeta", [1.0, 0.5, 0.2])
    def test_edge_cases(self, zeta):
        dm = self._edge_measure(zeta)
        for blocks in (1, 2, 4, 8):
            assert_same_maxima(dm, blocks)
        # the tied fibers are the largest of each run
        tied = disint._fiber_norms(zeta, dm, [2])[0]
        assert disint._largest_norms(dm, zeta, 2).tolist() == [
            tied, max(tied, disint._fiber_norms(zeta, dm, [4])[0])]
        # no cell of positive reference mass, and a run without one
        for ref in (np.zeros(8), np.r_[np.zeros(4), np.ones(4)]):
            assert_same_maxima(replace(dm, ref_masses=ref), 2)
        assert disint._largest_norms(replace(dm, ref_masses=np.zeros(8)), zeta, 2).tolist() == [0.0, 0.0]


class TestLargest:
    """``disint._largest`` gives the largest exact norm over its denominator
    in each group, bit for bit, and evaluates no candidate whose upper bound
    cannot beat the best quotient its group holds at that point."""

    @staticmethod
    def _measure(rng, ncell, positive, zeta):
        # 0-4 atoms per cell on a 1/8 grid (coincident atoms merge), cell 1
        # a copy of cell 0 so that tied norms occur
        counts = rng.integers(0, 5, size=ncell)
        counts[1] = counts[0]
        pos = rng.integers(0, 9, size=counts.sum()) / 8
        w = rng.uniform(0.1, 1.0, size=counts.sum())
        if not positive:
            w *= rng.choice([-1.0, 1.0], size=w.size)
        pos[counts[0]:2 * counts[0]] = pos[:counts[0]]
        w[counts[0]:2 * counts[0]] = w[:counts[0]]
        return DisintegratedMeasure.from_atoms(
            (np.arange(ncell) + 0.5) / ncell, np.ones(ncell),
            np.repeat(np.arange(ncell), counts), pos, w, "m", zeta,
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 4),
           st.sampled_from([1.0, 0.5, 0.2]), st.booleans(), st.booleans(), st.booleans())
    def test_matches_every_candidate(self, seed, k, runs, zeta, positive, scaled, floored):
        rng = np.random.default_rng(seed)
        dm = self._measure(rng, 6, positive, zeta)
        idx = rng.integers(0, 6, size=k)  # candidates, cells repeating
        run = rng.integers(0, runs, size=k)
        denom = rng.uniform(0.1, 3.0, size=k) if scaled else 1.0
        best = float(rng.uniform(0.0, 2.0)) if floored else 0.0
        lower, upper, norms = disint._norm_bounds(zeta, dm, idx)
        calls = []
        got = disint._largest(
            (lower, upper, lambda c: calls.append(np.asarray(c)) or norms(c)),
            run, runs, denom, best,
        )
        quotient = disint._fiber_norms(zeta, dm, idx) / denom
        want = np.full(runs, best)
        np.maximum.at(want, run, quotient)
        assert got.tobytes() == want.tobytes()
        if k == 0:
            assert got.tolist() == [best] * runs
        # each round evaluates only candidates whose upper bound beats the
        # best quotient of their group so far (the first of two rounds
        # takes each group's top lower and top upper bound)
        bound = upper / denom
        held = np.full(runs, best)
        first = calls.pop(0)
        assert first.size <= 2 * runs
        assert np.all(bound[first] > held[run[first]])
        np.maximum.at(held, run[first], quotient[first])
        assert len(calls) == 1
        assert np.all(bound[calls[0]] > held[run[calls[0]]])


class TestDistanceArguments:
    @pytest.mark.parametrize("dist", [linf_distance, l1_distance])
    def test_cell_count_mismatch(self, dist, rpf64):
        small = ek.build_rpf(ek.linear_expanding(2), ek.Potential.constant(0.0), 32)
        a = product_measure(np.ones(64), dirac(0.5), rpf=rpf64)
        b = product_measure(np.ones(32), dirac(0.5), rpf=small)
        with pytest.raises(ValueError, match="cells"):
            dist(a, b)
        with pytest.raises(ValueError, match="cells"):
            dist(b, a)

    @pytest.mark.parametrize("dist", [linf_distance, l1_distance])
    def test_reference_mismatch(self, dist, rpf64):
        a = product_measure(np.ones(64), dirac(0.5), rpf=rpf64, reference="m")
        with pytest.raises(ValueError, match="referenced"):
            dist(a, convert_reference(a, rpf64, "nu"))


class TestFlatLayout:
    """Construction checks of the CSR fiber storage."""

    def _dm(self, offsets, positions, weights, n=3):
        x = (np.arange(n) + 0.5) / n
        return DisintegratedMeasure(
            x=x, ref_masses=np.full(n, 1.0 / n),
            offsets=np.asarray(offsets), positions=np.asarray(positions, dtype=float),
            weights=np.asarray(weights, dtype=float), reference="m",
        )

    def test_equal_content_measures_compare_and_hash_by_identity(self):
        args = ([0, 2, 2, 3], [0.1, 0.4, 0.4], [0.5, -1.0, 2.0])
        a, b = self._dm(*args), self._dm(*args)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_valid_layout_and_fibers(self):
        dm = self._dm([0, 2, 2, 3], [0.1, 0.4, 0.4], [0.5, -1.0, 2.0])
        assert [f.to_pairs() for f in dm.fibers] == [
            [[0.1, 0.5], [0.4, -1.0]], [], [[0.4, 2.0]]
        ]
        assert dm.fiber(2).to_pairs() == [[0.4, 2.0]]
        assert dm.atom_cells.tolist() == [0, 0, 2]
        for arr in (dm.offsets, dm.positions, dm.weights):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("offsets", [[1, 2, 2, 3], [0, 2, 2, 2], [0, 2, 1, 3],
                                         [0, 1, 3], [0.0, 1.0, 2.0, 3.0]])
    def test_bad_offsets(self, offsets):
        with pytest.raises(ValueError):
            self._dm(offsets, [0.1, 0.4, 0.5], [1.0, 1.0, 1.0])

    def test_position_outside_unit_interval(self):
        with pytest.raises(ek.measures.MeasureDomainError, match="1.5"):
            self._dm([0, 1, 2, 3], [0.1, 1.5, 0.2], [1.0, 1.0, 1.0])

    def test_rounding_overshoot_is_clipped(self):
        dm = self._dm([0, 2, 2, 2], [-1e-13, 1.0 + 1e-13], [1.0, 1.0])
        assert dm.positions.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("bad", ["pos", "weight"])
    def test_non_finite(self, bad):
        pos, w = [0.1, 0.2], [1.0, 1.0]
        if bad == "pos":
            pos[1] = np.nan
        else:
            w[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            self._dm([0, 2, 2, 2], pos, w)

    def test_zero_weight(self):
        with pytest.raises(ValueError, match="non-zero"):
            self._dm([0, 2, 2, 2], [0.1, 0.2], [1.0, 0.0])

    @pytest.mark.parametrize("pos", [[0.2, 0.1], [0.2, 0.2]])
    def test_positions_increase_within_cell(self, pos):
        with pytest.raises(ValueError, match="increase"):
            self._dm([0, 2, 2, 2], pos, [1.0, 1.0])

    def test_cell_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            self._dm([0, 1, 2], [0.1, 0.2], [1.0, 1.0])

    def test_from_fibers_canonicalizes(self, rpf64):
        rng = np.random.default_rng(3)
        raw = [AtomicSignedMeasure(rng.choice([0.25, 0.5, 0.75], 4), rng.normal(size=4))
               for _ in range(64)]
        dm = DisintegratedMeasure.from_fibers(rpf64.x, rpf64.m, raw, "m")
        for got, f in zip(dm.fibers, raw):
            want = canonicalize(f)
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.weights, want.weights)

    def test_scaling_drops_atoms_that_become_zero(self, rpf64):
        dm = make_dm(rpf64, np.ones(64), [dirac(0.5, 1e-300)] * 63 + [dirac(0.5)], "m")
        assert dm.scaled(0.0).positions.size == 0
        tiny = dm.scaled(1e-300)
        assert np.diff(tiny.offsets).tolist() == [0] * 63 + [1]
        assert tiny.weights.tolist() == [1e-300]
