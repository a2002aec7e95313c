import numpy as np
import pytest

import ergodykit as ek
from ergodykit.cli import _OBSERVABLES
from ergodykit.disint import Observable, integrate, product_measure
from ergodykit.measures import seeded, uniforms
from ergodykit.stats import (
    CorrelationTable,
    correlation_birkhoff,
    correlation_operator,
    fit_exponential,
)
from ergodykit.transfer import iterate_to_equilibrium


@pytest.fixture(scope="module")
def dbl_equilibrium():
    sys_ = ek.gallery_entry("doubling-linear").build()
    rpf = ek.build_rpf(sys_.base, sys_.potential, 64)
    dm0 = product_measure(1.0, ek.dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
    mu, _ = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-10, max_iter=60)
    return sys_, rpf, mu


class TestFitExponential:
    def test_exact_sequence(self):
        ns = list(range(0, 12))
        tab = CorrelationTable(ns=ns, values=[0.7 * 0.5**n for n in ns], method="operator")
        fit = fit_exponential(tab)
        assert fit.prefactor == pytest.approx(0.7, rel=1e-9)
        assert fit.rate == pytest.approx(0.5, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.flag == "ok"

    def test_constant_sequence_flagged(self):
        tab = CorrelationTable(ns=list(range(8)), values=[0.3] * 8, method="operator")
        fit = fit_exponential(tab)
        assert fit.rate == pytest.approx(1.0, abs=1e-12)
        assert fit.flag == "non-decaying"

    def test_noisy_sequence(self):
        rng = np.random.default_rng(0)
        ns = list(range(0, 16))
        vals = [0.7 * 0.5**n * (1 + 0.01 * rng.standard_normal()) for n in ns]
        fit = fit_exponential(CorrelationTable(ns=ns, values=vals, method="operator"))
        assert fit.rate == pytest.approx(0.5, abs=0.02)

    def test_all_below_floor(self):
        tab = CorrelationTable(ns=list(range(8)), values=[1e-15] * 8, method="operator")
        fit = fit_exponential(tab)
        assert fit.rate == 0.0 and fit.flag == "all-below-floor"

    def test_too_few_entries(self):
        tab = CorrelationTable(ns=[0, 1, 2], values=[1e-15, 0.5, 0.25], method="operator")
        with pytest.raises(ValueError):
            fit_exponential(tab)


class TestCorrelationOperator:
    def test_constant_u_gives_zero(self, dbl_equilibrium):
        sys_, rpf, mu = dbl_equilibrium
        tab = correlation_operator(sys_, rpf, mu, Observable.constant(1.0),
                                   Observable.coord_x(), N=12)
        assert max(tab.values) <= 1e-9
        assert tab.ns == list(range(0, 13))

    def test_y_on_collapsed_fiber_is_zero(self, dbl_equilibrium):
        # mu0 = m x delta_0, so the y-coordinate vanishes on the support
        sys_, rpf, mu = dbl_equilibrium
        y = Observable.coord_y()
        tab = correlation_operator(sys_, rpf, mu, y, y, N=8)
        assert max(tab.values) <= 1e-12

    def test_variance_nonnegative(self, dbl_equilibrium):
        sys_, rpf, mu = dbl_equilibrium
        u = Observable.coord_x()
        var = integrate(mu, lambda x, y: np.asarray(u.fn(x, y)) ** 2) \
            - integrate(mu, u) ** 2
        assert var >= -1e-10

    def test_bilinearity(self, dbl_equilibrium):
        sys_, rpf, mu = dbl_equilibrium
        u = Observable.coord_x()
        au = Observable(fn=lambda x, y: -2.5 * np.asarray(u.fn(x, y)),
                        zeta=1.0, holder_bound=5.0)
        g = Observable.coord_x()
        t1 = correlation_operator(sys_, rpf, mu, u, g, N=6)
        t2 = correlation_operator(sys_, rpf, mu, au, g, N=6)
        for a, b in zip(t1.values, t2.values):
            assert b == pytest.approx(2.5 * a, abs=1e-9)

    def test_decay_matches_base_rate(self, dbl_equilibrium):
        sys_, rpf, mu = dbl_equilibrium
        u = Observable.coord_x()
        tab = correlation_operator(sys_, rpf, mu, u, u, N=14)
        fit = fit_exponential(tab)
        assert fit.flag == "ok"
        assert fit.rate == pytest.approx(0.5, abs=0.02)

    def test_bound_metadata(self, dbl_equilibrium):
        sys_, rpf, mu = dbl_equilibrium
        gap = ek.estimate_spectral_gap(sys_, rpf, trials=5, n_steps=10, seed=0)
        tab = correlation_operator(sys_, rpf, mu, Observable.coord_x(),
                                   Observable.coord_x(), N=6, gap=gap)
        assert tab.bound_prefactor is not None and tab.bound_xi == gap.xi


    def test_one_compression_round_per_step(self, tsujii_system, monkeypatch):
        # the corr-tsujii-16 benchmark run: tsujii at n = 16, 12 iterations,
        # correlation_n = 10.  At the homogeneous width every step
        # compresses once or twice; from the raw 1e-4 it doubled 8 times
        from ergodykit import measures

        rpf = ek.build_rpf(tsujii_system.base, tsujii_system.potential, 16)
        dm0 = product_measure(1.0, ek.dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
        mu, _ = iterate_to_equilibrium(tsujii_system, rpf, dm0, tol=1e-300, max_iter=12,
                                       distances=False)
        calls = []
        real = measures._compress_segments
        monkeypatch.setattr(measures, "_compress_segments",
                            lambda *a: calls.append(a[0].size) or real(*a))
        y = Observable.coord_y()
        correlation_operator(tsujii_system, rpf, mu, y, y, N=10)
        assert 10 <= len(calls) <= 2 * 10


class TestCorrelationBirkhoff:
    def test_constant_u_within_noise(self, tsujii_system):
        one = Observable.constant(1.0)
        y = Observable.coord_y()
        tab = correlation_birkhoff(tsujii_system, one, y, N=4, orbits=32,
                                   burn_in=100, rng_seed=1, samples_per_orbit=800)
        for v, se in zip(tab.values, tab.stderr):
            assert v <= 3 * max(se, 1e-12) + 1e-9

    def test_tsujii_mean_identity(self, tsujii_system):
        # time average of y must match (integral of o) / (1 - alpha) = 0.5
        y = Observable.coord_y()
        tab = correlation_birkhoff(tsujii_system, y, y, N=2, orbits=64,
                                   burn_in=200, rng_seed=2, samples_per_orbit=2500)
        # reuse the orbit machinery indirectly: C_0 = var(y); check against
        # the operator value separately in the acceptance suite.  Here just
        # sanity-check magnitudes are sane and positive.
        assert tab.values[0] > 0
        assert all(se > 0 for se in tab.stderr)

    def test_operator_vs_birkhoff(self, tsujii_system, tsujii_rpf128,
                                  tsujii_equilibrium128):
        mu, _ = tsujii_equilibrium128
        y = Observable.coord_y()
        t_op = correlation_operator(tsujii_system, tsujii_rpf128, mu, y, y, N=3)
        t_bk = correlation_birkhoff(tsujii_system, y, y, N=3, orbits=64,
                                    burn_in=300, rng_seed=3, samples_per_orbit=3000)
        for n in range(3):
            se = max(t_bk.stderr[n], 1e-12)
            assert abs(t_op.values[n] - t_bk.values[n]) <= 3 * se

    def test_seed_reproducibility(self, tsujii_system):
        y = Observable.coord_y()
        a = correlation_birkhoff(tsujii_system, y, y, N=2, orbits=16,
                                 burn_in=50, rng_seed=7, samples_per_orbit=300)
        b = correlation_birkhoff(tsujii_system, y, y, N=2, orbits=16,
                                 burn_in=50, rng_seed=7, samples_per_orbit=300)
        assert a.values == b.values and a.stderr == b.stderr

    def test_orbits_advance_together(self, tsujii_system):
        # one fiber-map call per time step, on the array of all orbit points
        calls = []
        fiber = tsujii_system.fiber
        counting = ek.FiberMap(
            fn=lambda x, y: calls.append(np.shape(x)) or fiber.fn(x, y),
            alpha=fiber.alpha, g_holder=fiber.g_holder,
        )
        sys_ = ek.SkewSystem(tsujii_system.base, counting, tsujii_system.potential)
        y = Observable.coord_y()
        tab = correlation_birkhoff(sys_, y, y, N=2, orbits=8, burn_in=10, rng_seed=7,
                                   samples_per_orbit=30)
        assert calls == [(8,)] * (10 + 30 + 2)
        ref = correlation_birkhoff(tsujii_system, y, y, N=2, orbits=8, burn_in=10,
                                   rng_seed=7, samples_per_orbit=30)
        assert tab.values == ref.values

    @pytest.mark.parametrize("system, noise, burn_in, u, g", [
        ("tsujii", 1e-9, 200, "y", "y"),
        ("tsujii", 0.0, 200, "cosx", "xy"),
        ("tsujii", 1e-9, 0, "x", "cosy"),
        ("mp-discontinuous", 1e-9, 50, "y", "cosx"),
        ("mp-geometric-holder", 0.0, 0, "xy", "one"),
    ])
    def test_matches_per_step_loop(self, system, noise, burn_in, u, g):
        from ergodykit.cli import _observable

        sys_ = ek.gallery_entry(system).build()
        u, g = _observable(u, sys_.zeta), _observable(g, sys_.zeta)
        kw = dict(orbits=12, burn_in=burn_in, rng_seed=5, samples_per_orbit=400,
                  orbit_noise=noise)
        got = correlation_birkhoff(sys_, u, g, 6, **kw)
        assert got.to_dict() == _birkhoff_per_step(sys_, u, g, 6, **kw).to_dict()

    @pytest.mark.parametrize("kw, match", [
        (dict(burn_in=-1), "burn_in"),
        (dict(orbits=1), "orbits"),
        (dict(orbits=0), "orbits"),
        (dict(samples_per_orbit=0), "samples_per_orbit"),
        (dict(N=0), "N"),
    ])
    def test_invalid_arguments_raise(self, tsujii_system, kw, match):
        # raised before any orbit array is filled, with no numpy warning
        y = Observable.coord_y()
        args = dict(N=2, orbits=4, burn_in=0, samples_per_orbit=5) | kw
        with pytest.raises(ValueError, match=match):
            correlation_birkhoff(tsujii_system, y, y, **args)

    @pytest.mark.parametrize("kw", [
        dict(burn_in=2**62),  # the noise of every step
        dict(burn_in=2**58),  # 2**62 floats: only their byte count is too big
        dict(samples_per_orbit=2**62, orbit_noise=0.0),  # the kept points
    ])
    def test_unaddressable_orbit_arrays_raise_memory_error(self, tsujii_system, kw):
        # numpy would refuse these sizes with a ValueError; none is allocated
        y = Observable.coord_y()
        with pytest.raises(MemoryError, match="more than numpy can address"):
            correlation_birkhoff(tsujii_system, y, y, N=2, orbits=16, **kw)

    def test_non_elementwise_observable_raises(self, tsujii_system):
        y = Observable.coord_y()
        first_only = Observable(fn=lambda x, y: np.asarray(y, dtype=float)[:1], name="first")
        with pytest.raises(ValueError, match="elementwise"):
            correlation_birkhoff(tsujii_system, first_only, y, N=1, orbits=4, burn_in=0,
                                 samples_per_orbit=5)

    def test_non_elementwise_fiber_map_raises(self, tsujii_system):
        y = Observable.coord_y()
        first_only = ek.FiberMap(fn=lambda x, y: 0.5 * np.asarray(y)[:1], alpha=0.5,
                                 name="first")
        bad = ek.SkewSystem(tsujii_system.base, first_only, tsujii_system.potential)
        with pytest.raises(ValueError, match="'first'.*elementwise"):
            correlation_birkhoff(bad, y, y, N=1, orbits=4, burn_in=0, samples_per_orbit=5)


def _birkhoff_per_step(sys_, u, g, N, orbits, burn_in, rng_seed, samples_per_orbit,
                       orbit_noise):
    """The loop the batched ``correlation_birkhoff`` replaced: noise drawn,
    and both observables called, once per time step."""
    rng = seeded(rng_seed)
    total = burn_in + samples_per_orbit + N
    x = uniforms(rng, orbits)
    y = uniforms(rng, orbits)
    u_traj = np.empty((samples_per_orbit + N, orbits))
    g_traj = np.empty((samples_per_orbit + N, orbits))
    for t in range(total):
        if t >= burn_in:
            u_traj[t - burn_in] = u.fn(x, y)
            g_traj[t - burn_in] = g.fn(x, y)
        y_new = np.asarray(sys_.fiber(x, y), dtype=float)
        x = sys_.base.apply(x)
        if orbit_noise:
            x = np.mod(x + (uniforms(rng, orbits) * (2 * orbit_noise) - orbit_noise), 1.0)
        y = y_new
    mu_u = u_traj[:samples_per_orbit].mean(axis=0)
    mu_g = g_traj[:samples_per_orbit].mean(axis=0)
    values, stderr = [], []
    for n in range(N + 1):
        per_orbit = (u_traj[:samples_per_orbit] * g_traj[n:n + samples_per_orbit]).mean(
            axis=0) - mu_u * mu_g
        values.append(abs(float(per_orbit.mean())))
        stderr.append(float(per_orbit.std(ddof=1) / np.sqrt(orbits)))
    return CorrelationTable(ns=list(range(N + 1)), values=values, method="birkhoff",
                            stderr=stderr)


class TestElementwiseObservables:
    """The library and CLI observables on paired arrays (1-d and 2-d) equal
    scalar-x calls."""

    @pytest.mark.parametrize("name", sorted(_OBSERVABLES))
    def test_paired_arrays_match_scalar_calls(self, name):
        obs = _OBSERVABLES[name](1.0)
        rng = np.random.default_rng(5)
        xs = np.r_[0.0, 0.5, 1.0, rng.uniform(0, 1, 100)]
        ys = np.r_[1.0, 0.0, 0.5, rng.uniform(0, 1, 100)]
        paired = np.asarray(obs.fn(xs, ys), dtype=float)
        scalar = np.array([obs.fn(float(x), np.array([y]))[0] for x, y in zip(xs, ys)])
        assert paired.shape == xs.shape
        assert np.array_equal(paired, scalar)
        # Birkhoff averages evaluate on the (time, orbit) arrays of a trajectory
        grid = np.asarray(obs.fn(xs[3:].reshape(20, 5), ys[3:].reshape(20, 5)), dtype=float)
        assert grid.shape == (20, 5)
        assert np.array_equal(grid.ravel(), scalar[3:])
