import typing
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import ergodykit as ek
from ergodykit.disint import (
    DisintegratedMeasure,
    Observable,
    disintegration_holder,
    integrate,
    l1_norm,
    linf_distance,
    linf_norm,
    multiply_observable,
    _sinf_norms,
    product_measure,
    s1_norm,
    sinf_norm,
)
from ergodykit.dualnorm import distance_value
from ergodykit.measures import AtomicSignedMeasure, canonicalize, dirac, seeded, uniforms
from ergodykit import transfer
from ergodykit.transfer import (
    FiberMap,
    _fit_geometric,
    _random_zero_average,
    apply_F_phi,
    apply_F_phih_normalized,
    check_class_S,
    convergence_constants,
    estimate_spectral_gap,
    homogeneous_delta,
    iterate_to_equilibrium,
    reduce_potential,
    regularity_constants,
    verify_LY_S1,
)

from conftest import random_measure


@pytest.fixture(scope="module")
def dbl():
    sys_ = ek.gallery_entry("doubling-linear").build()
    rpf = ek.build_rpf(sys_.base, sys_.potential, 64)
    return sys_, rpf


def _holder05_system():
    # the reg-holder05-12 benchmark system: linear base, tsujii fiber with
    # alpha = 0.5, zeta = 0.5
    from ergodykit.cli import RunConfig, build_system

    return build_system(RunConfig(system=dict(
        base="linear", l=2, fiber="tsujii", alpha=0.5, zeta=0.5,
    )))


class TestSkewSystem:
    def test_sampled_invariants_gallery(self):
        for entry in ek.gallery():
            sys_ = entry.build()
            rep = sys_.sampled_invariants(samples=120, seed=0)
            assert rep["contraction_ok"], entry.name
            assert rep["fiber_holder_ok"], entry.name

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FiberMap(fn=lambda x, y: y, alpha=1.0)

    def test_type_hints_resolve(self):
        assert typing.get_type_hints(ek.SkewSystem)["base"] is ek.BaseMap

    def test_regularity_precondition(self):
        sys_ = ek.gallery_entry("tsujii").build()
        assert sys_.regularity_precondition == pytest.approx(0.25)


class TestApplyFPhi:
    def test_equilibrium_is_eigenvector(self, dbl):
        sys_, rpf = dbl
        mu0 = product_measure(1.0, dirac(0.0), rpf=rpf, reference="nu", zeta=1.0)
        out = apply_F_phi(sys_, rpf, mu0)
        assert np.max(np.abs(out.phi1 - rpf.lam * mu0.phi1)) <= 1e-8
        for j in range(rpf.n):
            assert distance_value(out.fibers[j], rpf.lam * mu0.fibers[j], 1.0) <= 1e-8

    def test_delta_one_maps_to_half(self, dbl):
        sys_, rpf = dbl
        dm = product_measure(1.0, dirac(1.0), rpf=rpf, reference="nu", zeta=1.0)
        out = apply_F_phi(sys_, rpf, dm)
        assert np.allclose(out.phi1, 2.0)  # lambda = 2 scales the marginal
        for j, f in enumerate(out.fibers):
            assert f.to_pairs() == [[0.5, out.phi1[j]]]

    def test_l1_bounded_by_lambda(self, dbl):
        sys_, rpf = dbl
        rng = seeded(0)
        for _ in range(20):
            dm = _random_zero_average(rpf, 1.0, rng)
            dm = replace(dm, ref_masses=rpf.nu.copy(), reference="nu")
            out = apply_F_phi(sys_, rpf, dm)
            assert l1_norm(out) <= rpf.lam * l1_norm(dm) + 1e-8

    def test_reference_guard(self, dbl):
        sys_, rpf = dbl
        dm = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        with pytest.raises(ValueError):
            apply_F_phi(sys_, rpf, dm)


class TestNormalizedOperator:
    def test_probability_in_probability_out(self):
        for entry in ek.gallery():
            sys_ = entry.build()
            rpf = ek.build_rpf(sys_.base, sys_.potential, 48)
            dm = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)
            out = apply_F_phih_normalized(sys_, rpf, dm)
            assert out.total_mass() == pytest.approx(1.0, abs=1e-10), entry.name
            for j, f in enumerate(out.fibers):
                assert f.total_mass() == pytest.approx(out.phi1[j], abs=1e-10)

    def test_weak_contraction_linf(self, dbl):
        sys_, rpf = dbl
        rng = seeded(1)
        for _ in range(25):
            dm = _random_zero_average(rpf, 1.0, rng)
            out = apply_F_phih_normalized(sys_, rpf, dm)
            assert linf_norm(out) <= linf_norm(dm) + 1e-8

    def test_strong_contraction_with_marginal_term(self, dbl):
        # ||Fbar mu||_inf <= alpha**zeta ||mu||_inf + |phi1|_inf
        sys_, rpf = dbl
        rng = seeded(2)
        az = sys_.alpha_zeta
        for _ in range(25):
            dm = _random_zero_average(rpf, 1.0, rng)
            out = apply_F_phih_normalized(sys_, rpf, dm)
            bound = az * linf_norm(dm) + float(np.max(np.abs(dm.phi1)))
            assert linf_norm(out) <= bound + 1e-8

    def test_mass_conserved_signed(self, dbl):
        sys_, rpf = dbl
        rng = seeded(3)
        dm = _random_zero_average(rpf, 1.0, rng)
        out = apply_F_phih_normalized(sys_, rpf, dm)
        assert out.total_mass() == pytest.approx(dm.total_mass(), abs=1e-10)


class TestIterate:
    def test_geometric_single_atom_distances(self, dbl):
        sys_, rpf = dbl
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        mu, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-9, max_iter=60)
        assert rep.converged
        # fibers delta at alpha**k: distance at step k is exactly 0.5**k
        assert rep.distances[9] == pytest.approx(2.0**-10, rel=1e-9)
        ratios = np.array(rep.distances[1:12]) / np.array(rep.distances[:11])
        assert np.allclose(ratios, 0.5, rtol=1e-6)
        # the limit is m x delta_0
        for f in mu.fibers:
            assert f.n_atoms == 1 and abs(f.positions[0]) < 1e-9

    def test_requires_probability(self, dbl):
        sys_, rpf = dbl
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        with pytest.raises(ValueError):
            iterate_to_equilibrium(sys_, rpf, dm0.scaled(2.0))

    @pytest.mark.parametrize("weight", [2.0, 0.5])
    def test_requires_restrictions_of_a_probability(self, dbl, weight):
        # restrictions of mass 2 (or 1/2) over every cell are no probability
        sys_, rpf = dbl
        dm0 = DisintegratedMeasure.from_fibers(rpf.x, rpf.m, [dirac(0.5, weight)] * rpf.n, "m")
        with pytest.raises(ValueError, match="probability"):
            iterate_to_equilibrium(sys_, rpf, dm0)

    def test_non_convergence_is_reported(self, dbl):
        sys_, rpf = dbl
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        _, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-300, max_iter=5)
        assert not rep.converged and rep.iterations == 5

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_must_be_positive(self, dbl, max_iter):
        sys_, rpf = dbl
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            iterate_to_equilibrium(sys_, rpf, dm0, max_iter=max_iter)

    def test_empty_series_has_no_fit(self):
        assert _fit_geometric([]) == (0.0, 0.0)

    def test_kernel_decay_follows_zeta(self, tsujii_system):
        # r_hat is measured in the zeta-Holder norm, so a discretization
        # iterated and measured at zeta = 1 first must report what a fresh
        # one does
        half = replace(tsujii_system, zeta=0.5)

        def constants(sys_, rpf):
            dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)
            iterate_to_equilibrium(sys_, rpf, dm0, tol=0.0, max_iter=3)
            return convergence_constants(sys_, rpf)

        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 64)
        constants(tsujii_system, rpf)
        got = constants(half, rpf)
        want = constants(half, ek.build_rpf(half.base, half.potential, 64))
        assert (got["r_hat"], got["beta3"], got["D3"], got["D4"]) == (
            want["r_hat"], want["beta3"], want["D3"], want["D4"])

    def test_tsujii_mean_identity_small_grid(self, tsujii_system, tsujii_rpf128,
                                             tsujii_equilibrium128):
        mu, rep = tsujii_equilibrium128
        ybar = integrate(mu, Observable.coord_y())
        assert ybar == pytest.approx(0.5, abs=2e-3)
        assert rep.fitted_rate < 1.0 and rep.fit_r2 > 0.99
        c = convergence_constants(tsujii_system, tsujii_rpf128)
        assert c["beta3"] == pytest.approx(max(np.sqrt(c["r_hat"]), np.sqrt(0.5)))

    def test_iteration_measures_no_kernel_decay(self, dbl, monkeypatch):
        # the report carries the iteration's own numbers only; the kernel
        # decay is measured by convergence_constants, once per call
        sys_, rpf = dbl
        calls = []
        real = transfer.spectral_radius_on_kernel
        monkeypatch.setattr(transfer, "spectral_radius_on_kernel",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        _, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=0.0, max_iter=4)
        assert calls == []
        assert not {"r_hat", "beta3", "D3", "D4"} & set(rep.to_dict())
        c = convergence_constants(sys_, rpf)
        assert len(calls) == 1 and calls[0][1] == sys_.zeta
        assert sorted(c) == ["D3", "D4", "beta3", "r_hat"]
        assert all(type(v) is float for v in c.values())


class TestSpectralGap:
    def test_doubling_linear_gap(self, dbl):
        sys_, rpf = dbl
        gap = estimate_spectral_gap(sys_, rpf, trials=6, n_steps=14, seed=0)
        r_hat = convergence_constants(sys_, rpf)["r_hat"]
        assert gap.xi <= max(np.sqrt(r_hat), np.sqrt(sys_.alpha_zeta)) + 0.05
        assert gap.xi < 1.0

    def test_pure_fiber_dipoles_decay_at_alpha(self, dbl):
        # phi1 = 0 measures: decay governed by the fiber contraction
        sys_, rpf = dbl
        rng = np.random.default_rng(4)
        from ergodykit.disint import sinf_norm
        fibers = []
        for _ in range(rpf.n):
            a, b = rng.uniform(0, 1, 2)
            fibers.append(dirac(float(a), 0.7) + dirac(float(b), -0.7))
        dm = DisintegratedMeasure.from_fibers(
            x=rpf.x, ref_masses=rpf.m.copy(), fibers=tuple(fibers), reference="m", zeta=1.0,
        )
        norms = []
        cur = dm
        for _ in range(10):
            cur = apply_F_phih_normalized(sys_, rpf, cur)
            norms.append(linf_norm(cur))
        rates = [norms[k + 1] / norms[k] for k in range(6)]
        assert max(rates) <= sys_.alpha_zeta + 0.05

    def test_trials_validation(self, dbl):
        sys_, rpf = dbl
        with pytest.raises(ValueError):
            estimate_spectral_gap(sys_, rpf, trials=2)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_n_steps_validation(self, dbl, n_steps):
        sys_, rpf = dbl
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            estimate_spectral_gap(sys_, rpf, n_steps=n_steps)


def _gap_one_trial_at_a_time(sys_, rpf, trials, n_steps, seed, delta=1e-4, cap=64):
    """The per-trial loop the batched ``estimate_spectral_gap`` replaced."""
    rng = seeded(seed)
    delta = homogeneous_delta(delta, cap)
    rates, big_r, xi, widths, runs = [], 1.0, 0.0, [], []
    for _ in range(trials):
        dm = _random_zero_average(rpf, sys_.zeta, rng)
        s0 = sinf_norm(dm)
        if s0 < 1e-12:
            continue
        norms, cur = [], dm
        for _ in range(n_steps):
            cur = apply_F_phih_normalized(sys_, rpf, cur, delta, cap, widths=widths)
            norms.append(sinf_norm(cur))
        rate, _ = _fit_geometric(norms, floor=1e-12 * s0)
        rates.append(rate)
        xi = max(xi, rate)
        runs.append((s0, norms))
    # the prefactor of every trial at the largest rate
    if xi > 0:
        ns = np.arange(1, n_steps + 1, dtype=float)
        for s0, norms in runs:
            with np.errstate(over="ignore"):
                pref = np.asarray(norms) / (s0 * xi**ns)
            big_r = max(big_r, float(np.nanmax(pref[np.isfinite(pref)])))
    realized = max([delta] + [float(w.max(initial=delta)) for w in widths])
    return {"xi": float(xi), "R": float(big_r), "trials": trials, "n_steps": n_steps,
            "per_trial_rates": rates, "realized_delta_max": realized}


class TestBatchedGap:
    """The trials stacked on one block-diagonal discretization give, bit for
    bit, what stepping them one at a time gives."""

    @pytest.fixture(scope="class")
    def holder05(self):
        sys_ = _holder05_system()
        return sys_, ek.build_rpf(sys_.base, sys_.potential, 12)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_tsujii_16(self, tsujii_system, seed):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        got = estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=12, seed=seed)
        assert got.to_dict() == _gap_one_trial_at_a_time(tsujii_system, rpf, 5, 12, seed)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_tsujii_128(self, tsujii_system, tsujii_rpf128, seed):
        got = estimate_spectral_gap(tsujii_system, tsujii_rpf128, trials=5, n_steps=6,
                                    seed=seed)
        want = _gap_one_trial_at_a_time(tsujii_system, tsujii_rpf128, 5, 6, seed)
        assert got.to_dict() == want

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_zeta_half(self, holder05, seed):
        sys_, rpf = holder05
        got = estimate_spectral_gap(sys_, rpf, trials=6, n_steps=8, seed=seed, atom_cap=16)
        assert got.to_dict() == _gap_one_trial_at_a_time(sys_, rpf, 6, 8, seed, cap=16)

    def test_reported_bound_holds_on_every_trial(self, tsujii_system, monkeypatch):
        # the gap of the corr-tsujii-16 benchmark config (tsujii, n = 16, 5
        # trials, 12 steps), seeds 0-39: ||mu_k|| <= R xi**k ||mu_0|| on
        # every live trial and step, and no smaller R >= 1 would do
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        seen = []
        real = transfer._sinf_norms
        monkeypatch.setattr(transfer, "_sinf_norms", lambda *a: seen.append(real(*a)) or seen[-1])
        k = np.arange(1.0, 13.0)[:, None]
        for seed in range(40):
            seen.clear()
            gap = estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=12, seed=seed)
            s0, norms = seen[0], np.array(seen[1:])
            live = s0 >= 1e-12
            bound = gap.R * gap.xi**k * s0[live]
            assert gap.xi > 0.0 and gap.R >= 1.0
            assert np.all(norms[:, live] <= (1.0 + 1e-12) * bound)
            assert gap.R == 1.0 or np.any(norms[:, live] > (1.0 - 1e-9) * bound)

    def test_one_operator_call_per_step(self, tsujii_system):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        calls = []
        real = transfer.apply_F_phih_normalized

        def counted(sys_, r, dm, *args, **kwargs):
            calls.append(dm.n)
            return real(sys_, r, dm, *args, **kwargs)

        with mock.patch.object(transfer, "apply_F_phih_normalized", counted):
            estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=4, seed=0)
        assert calls == [5 * 16] * 4

    def test_sinf_blocks_match_each_block_alone(self, holder05):
        sys_, rpf = holder05
        rng = seeded(2)
        parts = [_random_zero_average(rpf, sys_.zeta, rng) for _ in range(3)]
        stacked = transfer._stack(parts, transfer._side_by_side(rpf, 3))
        want = [sinf_norm(p) for p in parts]
        assert _sinf_norms(stacked, 3).tolist() == want


def _zero_average_per_cell(rpf, zeta, rng):
    """The per-cell ``dirac`` / ``+`` build the flat ``_random_zero_average`` replaced."""
    n = rpf.n
    freqs = [rng.randrange(1, 4) for _ in range(2)]
    phi1 = sum(
        rng.gauss(0.0, 1.0) * np.cos(np.pi * f * rpf.x + rng.uniform(0.0, 2 * np.pi))
        for f in freqs
    )
    phi1 = np.asarray(phi1, dtype=float)
    phi1 -= float(np.dot(rpf.m, phi1))
    fibers = []
    for j in range(n):
        parts = [dirac(float(uniforms(rng, 1)[0]), float(phi1[j]))] if phi1[j] != 0 else []
        w = float(0.2 + (1.0 - 0.2) * uniforms(rng, 1)[0])
        a, b = uniforms(rng, 2)
        parts.append(dirac(float(a), w) + dirac(float(b), -w))
        fiber = parts[0]
        for p in parts[1:]:
            fiber = fiber + p
        fibers.append(fiber)
    return DisintegratedMeasure.from_fibers(
        x=rpf.x, ref_masses=rpf.m.copy(), fibers=fibers, reference="m", zeta=zeta,
    )


class TestRandomZeroAverage:
    @pytest.mark.parametrize("n, seed", [(16, 0), (16, 5), (64, 7), (128, 11)])
    def test_matches_per_cell_build(self, tsujii_system, n, seed):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, n)
        rng_a, rng_b = seeded(seed), seeded(seed)
        for _ in range(3):  # consecutive draws share one generator
            got = _random_zero_average(rpf, 1.0, rng_a)
            want = _zero_average_per_cell(rpf, 1.0, rng_b)
            for field in ("phi1", "offsets", "positions", "weights", "ref_masses", "x"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.phi1.tobytes() == want.phi1.tobytes()
        assert rng_a.getrandbits(64) == rng_b.getrandbits(64)

    @pytest.mark.parametrize("normal, triple", [(0.0, False), (1.0, False), (1.0, True)])
    def test_zero_density_and_coincident_dipoles(self, tsujii_system, normal, triple):
        # density 0 everywhere draws no atom positions (normal = 0); every
        # uniform unit repeated twice makes dipole ends coincide in many
        # cells; triple puts the atom there too (draws p, w, a, b per cell)
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        r = uniforms(seeded(3), (17, 2))
        if triple:
            units = np.r_[0.1, 0.2, r[:16, [0, 1, 0, 0]].ravel()]
        else:
            units = np.repeat(r.ravel(), 2)
        got = _random_zero_average(rpf, 1.0, _Scripted(units, normal))
        want = _zero_average_per_cell(rpf, 1.0, _Scripted(units, normal))
        for field in ("phi1", "offsets", "positions", "weights"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        sizes = np.diff(got.offsets)
        assert (sizes == (0 if normal == 0.0 else 1)).sum() >= (16 if triple else 4)


class _Scripted:
    """A stand-in ``random.Random`` whose uniform draws replay ``units``
    (multiples of 2**-53) in order, through ``uniform`` and ``uniforms``."""

    def __init__(self, units, normal):
        self.units = iter(units)
        self.normal = normal

    def randrange(self, start, stop):
        return start

    def gauss(self, mu, sigma):
        return self.normal

    def uniform(self, a, b):
        return a + (b - a) * next(self.units)

    def getrandbits(self, k):
        # ``uniforms`` keeps the top 53 bits of each little-endian 64-bit word
        words = [int(next(self.units) * 2.0**53) << 11 for _ in range(k // 64)]
        return int.from_bytes(np.array(words, dtype="<u8").tobytes(), "little")


class TestClassS:
    def test_linear_fiber_fixes_zero(self, dbl):
        sys_, _ = dbl
        y0 = check_class_S(sys_)
        assert y0 is not None and abs(y0) < 1e-10

    def test_tsujii_has_no_fixed_section(self, tsujii_system):
        assert check_class_S(tsujii_system) is None

    def test_discontinuous_fiber_fixes_zero(self):
        sys_ = ek.gallery_entry("mp-discontinuous").build()
        y0 = check_class_S(sys_)
        assert y0 is not None and abs(y0) < 1e-10


class TestReducePotential:
    def test_additive_y_term_drops(self):
        Phi = Observable(fn=lambda x, y: np.sin(x) + np.asarray(y, dtype=float),
                         zeta=1.0, holder_bound=3.0)
        pot = reduce_potential(Phi, 0.0)
        xs = np.linspace(0, 1, 50)
        assert np.allclose(pot.fn(xs), np.sin(xs))

    def test_independent_of_y(self):
        Phi = Observable(fn=lambda x, y: np.full_like(np.asarray(y, dtype=float),
                                                      np.cos(x)),
                         zeta=1.0, holder_bound=2.0)
        pot = reduce_potential(Phi, 0.37)
        xs = np.linspace(0, 1, 50)
        assert np.allclose(pot.fn(xs), np.cos(xs))

    def test_reduced_potential_discretizes(self):
        # build_rpf evaluates the potential once on the (deg, n) preimages
        base = ek.linear_expanding(2)
        Phi = Observable(fn=lambda x, y: np.sin(x) + np.asarray(y, dtype=float),
                         zeta=1.0, holder_bound=3.0)
        got = ek.build_rpf(base, reduce_potential(Phi, 0.25), 64)
        want = ek.build_rpf(base, ek.Potential.from_callable(lambda x: Phi.fn(x, 0.25)), 64)
        for field in ("lam", "h", "nu", "m", "wphi", "weights"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_non_elementwise_potential_raises(self):
        Phi = Observable(fn=lambda x, y: np.sum(np.asarray(y, dtype=float)), name="total")
        with pytest.raises(ValueError, match="'total'.*elementwise"):
            reduce_potential(Phi, 0.0)

    def test_multiplicative_form(self):
        Phi = Observable(fn=lambda x, y: np.cos(x) * (1.0 + np.asarray(y, dtype=float)),
                         zeta=1.0, holder_bound=4.0)
        pot = reduce_potential(Phi, 0.0)
        xs = np.linspace(0, 1, 50)
        assert np.allclose(pot.fn(xs), np.cos(xs))


class TestLYS1:
    def test_doubling_fit(self, dbl):
        sys_, rpf = dbl
        fit = verify_LY_S1(sys_, rpf, samples=6, n_steps=16, seed=0)
        assert fit.beta2 < 1.0

    def test_zero_measure_trivial(self, dbl):
        sys_, rpf = dbl
        dm = DisintegratedMeasure.from_fibers(
            x=rpf.x, ref_masses=rpf.nu.copy(),
            fibers=tuple([ek.zero_measure()] * rpf.n), reference="nu", zeta=1.0,
        )
        assert s1_norm(dm) == 0.0
        out = apply_F_phi(sys_, rpf, dm)
        assert s1_norm(out) == 0.0

    def test_homogeneity_sanity(self, dbl):
        sys_, rpf = dbl
        rng = seeded(5)
        dm = _random_zero_average(rpf, 1.0, rng)
        dm = replace(dm, ref_masses=rpf.nu.copy(), reference="nu")
        out1 = apply_F_phi(sys_, rpf, dm)
        dm2 = dm.scaled(2.0)
        out2 = apply_F_phi(sys_, rpf, dm2)
        assert s1_norm(out2) == pytest.approx(2.0 * s1_norm(out1), rel=1e-9)


class TestDuality:
    def test_identity_converges_with_grid(self, tsujii_system):
        """The Koopman-transfer duality holds to quadrature accuracy.

        The discrete operator necessarily spreads each source cell across
        neighboring output cells, so with g o F evaluated pointwise at
        support atoms the identity carries an O(h^2) quadrature error; it
        must shrink by about 4x per grid doubling.
        """
        errs = []
        for n in (64, 128):
            rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, n)
            dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
            mu, _ = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=1e-11,
                                           max_iter=80)
            s = Observable(fn=lambda x, y: np.cos(2 * np.pi * x)
                           * (1 + 0.5 * np.asarray(y, dtype=float)),
                           zeta=1.0, holder_bound=9.0)
            g = Observable(fn=lambda x, y: np.sin(2 * np.pi * x)
                           + np.asarray(y, dtype=float) ** 2,
                           zeta=1.0, holder_bound=9.0)
            smu = multiply_observable(mu, s)
            lhs = integrate(apply_F_phih_normalized(tsujii_system, rpf, smu), g)

            def g_of_F(x, y):
                return np.asarray(
                    g.fn(tsujii_system.base.apply(x),
                         tsujii_system.fiber(x, np.asarray(y, dtype=float))),
                    dtype=float,
                )

            rhs = integrate(mu, lambda x, y: g_of_F(x, y) * np.asarray(s.fn(x, y)))
            errs.append(abs(lhs - rhs))
        assert errs[0] < 5e-4
        assert errs[1] < 0.5 * errs[0]


class TestZeroMarginalFallback:
    def test_fallback_choice_is_irrelevant(self, dbl):
        # cells with zero output marginal hold the zero measure; a file of
        # unit-mass fibers, which must put some fiber on every massless
        # cell, is refused, and restriction files put nothing there
        sys_, rpf = dbl
        stored = DisintegratedMeasure.from_fibers(
            x=rpf.x, ref_masses=rpf.nu.copy(),  # all mass on the first cell
            fibers=tuple([dirac(0.7, 1.0 / rpf.nu[0])] + [ek.zero_measure()] * (rpf.n - 1)),
            reference="nu", zeta=1.0,
        ).to_dict()
        assert stored["fibers"][1:] == [[]] * (rpf.n - 1)
        unit = dict(stored, normalized=True,
                    fibers=[[[0.7, 1.0]]] + [[[0.123, 1.0]]] * (rpf.n - 1))
        with pytest.raises(ValueError, match="normalized"):
            DisintegratedMeasure.from_dict(unit)
        direct = apply_F_phi(sys_, rpf, DisintegratedMeasure.from_dict(stored))
        empty = direct.phi1 == 0.0
        assert np.any(empty)  # some leaves really carry nothing
        assert all(direct.fibers[j].n_atoms == 0 for j in np.nonzero(empty)[0])


class TestRegularity:
    def test_recursion_without_compression(self, tsujii_system):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 64)
        bound = regularity_constants(tsujii_system, rpf)
        rng = np.random.default_rng(6)
        for _ in range(8):
            k = int(rng.integers(1, 5))
            fib = random_measure(rng, k, "probability")
            dm = product_measure(np.ones(64), fib, rpf=rpf, reference="m", zeta=1.0)
            for _ in range(int(rng.integers(0, 2))):
                dm = apply_F_phih_normalized(tsujii_system, rpf, dm, 1e-12, 10**9)
            h0 = disintegration_holder(dm)
            ln = linf_norm(dm)
            out = apply_F_phih_normalized(tsujii_system, rpf, dm, 1e-12, 10**9)
            assert disintegration_holder(out) <= bound.beta * h0 + bound.D * ln + 1e-6

    def test_equilibrium_bound(self, tsujii_system, tsujii_rpf128,
                               tsujii_equilibrium128):
        mu, _ = tsujii_equilibrium128
        bound = regularity_constants(tsujii_system, tsujii_rpf128)
        assert bound.beta == pytest.approx(0.25)
        assert bound.bound == pytest.approx((np.pi / 2 * 0.5) / 0.75, rel=1e-9)
        emp = disintegration_holder(mu)
        assert 0.0 < emp <= bound.bound + 1e-9

    def test_homogeneous_delta(self):
        assert homogeneous_delta(1e-4, 64) == pytest.approx(1.0 / 63.0)
        assert homogeneous_delta(0.5, 64) == 0.5


class TestRealizedCompressionWidth:
    """Reports carry the largest width the cap forced, and the bound uses it."""

    def test_no_doubling_keeps_delta_bound(self, tsujii_system):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        _, rep = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=0.0, max_iter=12)
        # positive fibers fit the homogeneous grid of cap buckets
        assert rep.realized_delta_max == rep.compress_delta == homogeneous_delta(1e-4, 64)
        assert rep.compress_error_bound == rep.compress_delta
        assert rep.to_dict()["realized_delta_max"] == rep.compress_delta

    def test_doubling_widens_the_bound(self, tsujii_system):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        signed = dirac(0.2, 1.5) + dirac(0.7, -0.5)  # a signed probability
        dm0 = product_measure(1.0, signed, rpf=rpf, reference="m", zeta=1.0)
        _, rep = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=0.0, max_iter=8,
                                        atom_cap=4)
        delta = rep.compress_delta
        doublings = int(round(np.log2(rep.realized_delta_max / delta)))
        assert doublings >= 1
        assert rep.realized_delta_max == delta * 2.0**doublings
        widths = delta * 2.0 ** np.arange(doublings + 1)
        assert rep.compress_error_bound == pytest.approx(widths.sum(), rel=1e-15)
        assert rep.compress_error_bound > delta

    def test_drift_bound_formula(self):
        from ergodykit.transfer import compression_drift_bound

        assert compression_drift_bound(0.25, 0.25, 0.5) == 0.5
        assert compression_drift_bound(0.25, 1.0, 0.5) == pytest.approx(0.5 + 2**-0.5 + 1.0)

    def test_gap_report_realized_width(self, tsujii_system):
        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        gap = estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=12, seed=4)
        delta = homogeneous_delta(1e-4, 64)
        # signed trial measures need both sign's buckets: the cap doubles
        assert gap.realized_delta_max >= 2 * delta
        assert gap.to_dict()["realized_delta_max"] == gap.realized_delta_max
        wide = estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=3, seed=4,
                                     atom_cap=10**6)
        assert wide.realized_delta_max == homogeneous_delta(1e-4, 10**6)

    def test_widths_sink(self, dbl):
        sys_, rpf = dbl
        widths = []
        dm = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        apply_F_phih_normalized(sys_, rpf, dm, 1e-3, 8, widths=widths)
        assert len(widths) == 1 and widths[0].tolist() == [1e-3] * rpf.n


def _start(sys_, n):
    rpf = ek.build_rpf(sys_.base, sys_.potential, n)
    return rpf, product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)


class TestStopFromLowerBounds:
    """``distances=False`` decides the stop rule from the lower bounds of
    ``_norm_bounds`` where they decide it (L at zeta = 1, the zeta = 1
    distance below): the steps, the stop and the final measure are those of
    the exact route, and only the distances and the fit are missing from
    the report."""

    STEPS = 16

    @pytest.fixture(scope="class", params=[("holder05", 12, 0.5), ("holder05", 64, 0.5),
                                           ("mp-geometric-holder", 64, 0.5),
                                           ("tsujii", 16, 1.0), ("doubling-linear", 64, 1.0)],
                    ids=lambda p: f"{p[0]}-{p[1]}")
    def case(self, request):
        name, n, zeta = request.param
        sys_ = _holder05_system() if name == "holder05" else ek.gallery_entry(name).build()
        rpf, dm0 = _start(sys_, n)
        _, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=0.0, max_iter=self.STEPS)
        assert sys_.zeta == zeta and len(rep.distances) == self.STEPS
        return sys_, rpf, dm0, rep.distances

    def _both(self, case, tol):
        sys_, rpf, dm0, _ = case
        exact, rep_e = iterate_to_equilibrium(sys_, rpf, dm0, tol=tol, max_iter=self.STEPS)
        fast, rep_f = iterate_to_equilibrium(sys_, rpf, dm0, tol=tol, max_iter=self.STEPS,
                                             distances=False)
        for field in ("offsets", "positions", "weights", "phi1"):
            assert np.array_equal(getattr(fast, field), getattr(exact, field)), field
        want = {**rep_e.to_dict(), "distances": [], "fitted_rate": 0.0, "fit_r2": 0.0}
        assert rep_f.to_dict() == want
        assert type(rep_f.converged) is type(rep_e.converged) is bool
        return rep_e

    @pytest.mark.parametrize("tol", [0.0, 1e-300])
    def test_tolerance_never_reached(self, case, tol):
        rep = self._both(case, tol)
        assert rep.iterations == self.STEPS and not rep.converged

    @pytest.mark.parametrize("k", [3, 8, 15])
    @pytest.mark.parametrize("side", [-np.inf, None, np.inf], ids=["below", "at", "above"])
    def test_tolerance_at_a_distance(self, case, k, side):
        d = case[3][k - 1]
        # a numpy tolerance still reports converged as a bool
        tol = np.float64(d if side is None else np.nextafter(d, side))
        rep = self._both(case, tol)
        stop = next((j + 1 for j, dj in enumerate(case[3]) if dj < tol), self.STEPS)
        assert rep.iterations == stop and rep.converged == (case[3][stop - 1] < tol)

    def test_no_level_matching_at_a_tiny_tolerance(self, monkeypatch):
        from ergodykit import dualnorm

        sys_ = _holder05_system()
        rpf, dm0 = _start(sys_, 12)
        calls = []
        real = dualnorm._matching_costs
        monkeypatch.setattr(dualnorm, "_matching_costs",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        _, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-300, max_iter=6,
                                        distances=False)
        assert rep.iterations == 6 and calls == []
        # every level DP runs through the spied name: each step's exact
        # distances make at least one call
        iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-300, max_iter=6)
        assert len(calls) >= 6

    @pytest.mark.parametrize("distances", [True, False])
    def test_zeta_one_distances_only_when_asked(self, tsujii_system, monkeypatch, distances):
        # at zeta = 1 too, only distances=True computes the exact distances:
        # at a tiny tolerance a lower bound decides every step of the other,
        # which then never reaches the integral term of the closed form
        from ergodykit import dualnorm

        assert tsujii_system.zeta == 1.0
        rpf, dm0 = _start(tsujii_system, 16)
        calls, integrals = [], []
        real = transfer.linf_distance
        monkeypatch.setattr(transfer, "linf_distance",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        real_integrals = dualnorm._chain_integrals
        monkeypatch.setattr(dualnorm, "_chain_integrals",
                            lambda *a, **k: integrals.append(a) or real_integrals(*a, **k))
        _, rep = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=1e-300, max_iter=5,
                                        distances=distances)
        assert rep.iterations == 5 and not rep.converged
        if distances:
            assert len(calls) == 5 and len(integrals) >= 5
            assert len(rep.distances) == 5 and rep.fitted_rate > 0.0
        else:
            assert calls == [] and integrals == []
            assert rep.distances == [] and rep.fitted_rate == 0.0

    @pytest.mark.parametrize("z", [0.5, 0.2, 1.0])
    def test_bounds_hold_on_every_cell(self, z):
        from ergodykit import disint

        sys_ = _holder05_system()
        rpf, cur = _start(sys_, 24)
        for _ in range(8):
            nxt = apply_F_phih_normalized(sys_, rpf, cur)
            idx = np.flatnonzero(nxt.ref_masses > 0)
            exact = disint._fiber_norms(z, nxt, idx, cur, idx)
            assert np.all(disint._norm_bounds(z, nxt, idx, cur)[0] <= exact)
            cur = nxt

    def test_rounding_level_bound_needs_the_slack(self):
        # At zeta = 1 - 2**-50 the zeta = 1 and exact distances agree to
        # rounding, and the computed zeta = 1 distance of some random signed
        # measures exceeds the computed exact one.  Read as a lower bound
        # without the slack, it would call a tolerance just above the exact
        # distance unreached.
        from ergodykit import disint

        z = 1.0 - 2.0**-50
        rng = np.random.default_rng(0)
        for _ in range(2000):
            pos, w = rng.uniform(0.0, 1.0, 12), rng.uniform(-1.0, 1.0, 12)
            a, b = (DisintegratedMeasure.from_atoms(
                [0.5], [1.0], np.zeros(np.sum(keep), dtype=int), pos[keep],
                np.abs(w[keep]), "m", z) for keep in (w > 0, w < 0))
            d1 = disint._fiber_norms(1.0, a, [0], b, [0])[0]
            exact = disint._fiber_norms(z, a, [0], b, [0])[0]
            if d1 > exact:
                break
        assert d1 > exact
        assert disint._norm_bounds(z, a, [0], b)[0][0] <= exact
        assert transfer._below_tol(a, b, z, float(np.nextafter(exact, np.inf)))
        assert not transfer._below_tol(a, b, z, exact)

    @pytest.mark.parametrize("z", [1.0, 0.5])
    def test_exact_fallback_on_many_cells(self, z, monkeypatch):
        # a tol at, just above and just below the largest distance of each
        # step: just above it every lower bound is below tol, so the largest
        # exact distance decides
        sys_ = _holder05_system()
        rpf, cur = _start(sys_, 24)
        fallbacks = []
        real = transfer._largest
        monkeypatch.setattr(transfer, "_largest",
                            lambda *a, **k: fallbacks.append(a) or real(*a, **k))
        for step in range(8):
            nxt = apply_F_phih_normalized(sys_, rpf, cur)
            d = linf_distance(nxt, cur, z)
            assert d > 0.0
            for tol in (d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf)):
                assert transfer._below_tol(nxt, cur, z, float(tol)) == (d < tol)
            assert len(fallbacks) >= step + 1
            cur = nxt


class TestHomogeneousWidth:
    """Every iteration of the operator compresses at
    ``homogeneous_delta(compress_delta, atom_cap)``, fixed up front."""

    @pytest.mark.parametrize("compress_delta, atom_cap", [(1e-4, 64), (0.3, 8)])
    def test_width_handed_to_compression(self, tsujii_system, monkeypatch,
                                         compress_delta, atom_cap):
        from ergodykit.stats import correlation_operator

        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        kw = dict(compress_delta=compress_delta, atom_cap=atom_cap)
        dm0 = ek.product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        mu, _ = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=0.0, max_iter=6, **kw)
        y = Observable.coord_y()
        runs = {
            "iterate_to_equilibrium":
                lambda: iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=0.0, max_iter=3, **kw),
            "estimate_spectral_gap":
                lambda: estimate_spectral_gap(tsujii_system, rpf, trials=5, n_steps=3, **kw),
            "correlation_operator":
                lambda: correlation_operator(tsujii_system, rpf, mu, y, y, 3, **kw),
            "verify_LY_S1":
                lambda: verify_LY_S1(tsujii_system, rpf, samples=2, n_steps=4, **kw),
        }
        widths = []
        real = transfer.compress_to_cap_segments

        def recorded(cell, pos, w, ncell, delta, cap):
            widths.append((delta, cap))
            return real(cell, pos, w, ncell, delta, cap)

        monkeypatch.setattr(transfer, "compress_to_cap_segments", recorded)
        want = transfer.homogeneous_delta(compress_delta, atom_cap)
        assert want == max(compress_delta, 1.0 / (atom_cap - 1))
        for name, run in runs.items():
            widths.clear()
            run()
            assert widths and set(widths) == {(want, atom_cap)}, name
