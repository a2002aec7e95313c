"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

import ergodykit as ek
from ergodykit.baserpf import _gather, build_rpf, check_hypotheses, combined_expansion_bound
from ergodykit.cli import main
from ergodykit.disint import (
    Observable,
    disintegration_holder,
    integrate,
    l1_norm,
    linf_norm,
    multiply_observable,
    product_measure,
)
from ergodykit.dualnorm import _dual_norm_lp, distance_value
from ergodykit.measures import AtomicSignedMeasure, canonicalize, dirac, pushforward, seeded
from ergodykit.stats import correlation_birkhoff, correlation_operator, fit_exponential
from ergodykit.systems import check_example_constants, gallery, gallery_entry
from ergodykit.transfer import (
    _random_zero_average,
    apply_F_phi,
    apply_F_phih_normalized,
    estimate_spectral_gap,
    iterate_to_equilibrium,
    regularity_constants,
)

from conftest import random_measure


def report(k, ok, detail=""):
    print(f"\nACCEPTANCE {k:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_probability_norm():
    """G3: the dual norm of every probability measure is 1."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        mu = random_measure(rng, int(rng.integers(1, 201)), kind="probability")
        worst = max(worst, abs(_dual_norm_lp(mu, 1.0)[0] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    assert report(1, ok, f"worst |norm-1|={worst:.2e}, {elapsed:.1f}s"), (worst, elapsed)


def test_criterion_02_fiber_contraction():
    """Pushforward by an alpha-contraction scales the norm by alpha**zeta."""
    rng = np.random.default_rng(102)
    worst_zero = -np.inf
    worst_mass = -np.inf
    for zeta in (0.5, 1.0):
        for _ in range(1000):
            alpha = float(rng.uniform(0.0, 0.95))
            s = float(rng.choice([-1.0, 1.0]))
            if rng.uniform() < 0.5:
                lo = alpha if s < 0 else 0.0
                b = float(rng.uniform(lo, 1.0 - alpha + lo))
                cmap = lambda y, _a=alpha * s, _b=b: _a * y + _b
            else:
                amp = alpha  # |d/dy sin| <= 1 on [0, 1]
                b = float(rng.uniform(0.0, 1.0 - amp))
                cmap = lambda y, _a=amp, _b=b: _b + _a * np.sin(y)
            mu = random_measure(rng, int(rng.integers(1, 26)), kind="zero_mass")
            before = _dual_norm_lp(mu, zeta)[0]
            after = _dual_norm_lp(pushforward(mu, cmap), zeta)[0]
            worst_zero = max(worst_zero, after - alpha**zeta * before)
            nu = random_measure(rng, int(rng.integers(1, 26)))
            slack = (
                _dual_norm_lp(pushforward(nu, cmap), zeta)[0]
                - alpha**zeta * _dual_norm_lp(nu, zeta)[0]
                - abs(nu.total_mass())
            )
            worst_mass = max(worst_mass, slack)
    ok = worst_zero <= 1e-9 and worst_mass <= 1e-9
    assert report(2, ok, f"zero-mass slack={worst_zero:.2e}, with-mass={worst_mass:.2e}")


def test_criterion_03_base_eigentriples():
    """Analytic eigendata of the three reference bases."""
    rpf = build_rpf(ek.linear_expanding(2), ek.Potential.constant(0.0), 64)
    e1 = abs(rpf.lam - 2.0)
    e2 = float(np.max(np.abs(rpf.h - 1.0)))
    e3 = float(np.max(np.abs(rpf.nu - 1.0 / 64)))
    rpf3 = build_rpf(ek.linear_expanding(3), ek.Potential.constant(-np.log(3.0)), 64)
    e4 = abs(rpf3.lam - 1.0)
    e5 = float(np.max(np.abs(rpf3.nu - 1.0 / 64)))
    e6 = float(np.max(np.abs(rpf3.m - 1.0 / 64)))
    rmp = build_rpf(ek.manneville_pomeau(0.5), ek.Potential.constant(0.0, zeta=0.5), 512)
    e7 = abs(rmp.lam - 2.0)
    e8 = float(np.max(np.abs(rmp.h - 1.0)))
    ok = max(e1, e2, e3, e4, e5, e6) <= 1e-8 and max(e7, e8) <= 1e-6 \
        and np.all(rmp.nu >= 0) and abs(rmp.nu.sum() - 1) < 1e-12
    assert report(3, ok, f"doubling {max(e1,e2,e3):.1e}, tripling {max(e4,e5,e6):.1e}, "
                  f"mp {max(e7,e8):.1e}")


def test_criterion_04_conformal_duality():
    """nu is fixed by the normalized adjoint on every gallery base."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for entry in gallery():
        sys_ = entry.build()
        rpf = build_rpf(sys_.base, sys_.potential, 128)
        for _ in range(100):
            g = rng.standard_normal(rpf.n)
            lhs = float(rpf.nu @ _gather(rpf.src, rpf.wphi, g)) / rpf.lam
            err = abs(lhs - float(rpf.nu @ g))
            worst = max(worst, err)
    ok = worst <= 1e-8
    assert report(4, ok, f"worst adjoint defect={worst:.2e}")


def test_criterion_05_operator_eigen_relation():
    """apply_F_phi fixes the equilibrium up to lambda; mass is conserved."""
    sys_ = gallery_entry("doubling-linear").build()
    rpf = build_rpf(sys_.base, sys_.potential, 64)
    mu0 = product_measure(1.0, dirac(0.0), rpf=rpf, reference="nu", zeta=1.0)
    out = apply_F_phi(sys_, rpf, mu0)
    marg = float(np.max(np.abs(out.phi1 - rpf.lam * mu0.phi1)))
    fib = max(
        distance_value(out.fibers[j], rpf.lam * mu0.fibers[j], 1.0) for j in range(rpf.n)
    )
    mass_worst = 0.0
    for entry in gallery():
        s = entry.build()
        r = build_rpf(s.base, s.potential, 48)
        dm = product_measure(1.0, dirac(1.0), rpf=r, reference="m", zeta=s.zeta)
        for _ in range(3):
            dm = apply_F_phih_normalized(s, r, dm)
            mass_worst = max(mass_worst, abs(dm.total_mass() - 1.0))
    ok = max(marg, fib) <= 1e-8 and mass_worst <= 1e-10
    assert report(5, ok, f"eigen defect={max(marg, fib):.2e}, mass defect={mass_worst:.2e}")


def test_criterion_06_weak_contraction():
    """Normalized operators never expand the weak norms."""
    rng = seeded(106)
    worst_l1 = -np.inf
    worst_linf = -np.inf
    for entry in gallery():
        sys_ = entry.build()
        n = 64 if sys_.zeta == 1.0 else 48
        rpf = build_rpf(sys_.base, sys_.potential, n)
        for _ in range(100):
            dm = _random_zero_average(rpf, sys_.zeta, rng)
            worst_linf = max(
                worst_linf,
                linf_norm(apply_F_phih_normalized(sys_, rpf, dm)) - linf_norm(dm),
            )
            dm_nu = replace(dm, ref_masses=rpf.nu.copy(), reference="nu")
            out = apply_F_phi(sys_, rpf, dm_nu)
            worst_l1 = max(worst_l1, l1_norm(out) / rpf.lam - l1_norm(dm_nu))
    ok = worst_l1 <= 1e-8 and worst_linf <= 1e-8
    assert report(6, ok, f"l1 slack={worst_l1:.2e}, linf slack={worst_linf:.2e}")


def test_criterion_07_convergence_rate(tsujii_equilibrium128):
    """Geometric convergence with the predicted per-step ratio."""
    sys_ = gallery_entry("doubling-linear").build()
    rpf = build_rpf(sys_.base, sys_.potential, 64)
    dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=1.0)
    mu, rep = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-8, max_iter=80)
    ratios = np.array(rep.distances[1:12]) / np.array(rep.distances[:11])
    ratio_ok = bool(np.all(np.abs(ratios - sys_.alpha_zeta) <= 0.01 * sys_.alpha_zeta))
    # predicted iteration count from the first distance and the exact ratio
    k_pred = 1 + int(np.ceil(np.log(1e-8 / rep.distances[0])
                             / np.log(sys_.alpha_zeta)))
    count_ok = rep.converged and abs(rep.iterations - k_pred) <= 2
    _, rep_t = tsujii_equilibrium128
    tsujii_ok = rep_t.fitted_rate < 1.0 and rep_t.fit_r2 > 0.99
    ok = ratio_ok and count_ok and tsujii_ok
    assert report(7, ok, f"ratio dev={np.max(np.abs(ratios-0.5)):.1e}, "
                  f"iters={rep.iterations} vs pred {k_pred}, "
                  f"tsujii rate={rep_t.fitted_rate:.3f} r2={rep_t.fit_r2:.4f}")


def _birkhoff_mean_y(sys_, orbits=64, burn_in=300, steps=3000, seed=55):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, orbits)
    y = rng.uniform(0, 1, orbits)
    acc = np.zeros(orbits)
    for t in range(burn_in + steps):
        if t >= burn_in:
            acc += y
        y = np.array([float(sys_.fiber(float(xv), np.array([yv]))[0])
                      for xv, yv in zip(x, y)])
        x = np.mod(sys_.base.apply(x) + rng.uniform(-1e-9, 1e-9, orbits), 1.0)
    per_orbit = acc / steps
    return float(per_orbit.mean()), float(per_orbit.std(ddof=1) / np.sqrt(orbits))


def test_criterion_08_tsujii_mean_identity(tsujii_system, tsujii_equilibrium512):
    """Invariance forces the mean fiber coordinate to (int o) / (1 - alpha)."""
    mu, _ = tsujii_equilibrium512
    ybar = integrate(mu, Observable.coord_y())
    op_ok = abs(ybar - 0.5) <= 2e-3
    mc, se = _birkhoff_mean_y(tsujii_system)
    bk_ok = abs(mc - ybar) <= 3 * se
    ok = op_ok and bk_ok
    assert report(8, ok, f"operator={ybar:.6f} (|err|={abs(ybar-0.5):.1e}), "
                  f"birkhoff={mc:.5f}+-{se:.5f}, |diff|/se={abs(mc-ybar)/se:.2f}")


def test_criterion_09_regularity(tsujii_system):
    """Holder regularity of the disintegration and its one-step recursion."""
    rng = np.random.default_rng(109)
    bound_ok = True
    details = []
    for entry in gallery():
        sys_ = entry.build()
        if sys_.regularity_precondition >= 1.0:
            continue
        rpf = build_rpf(sys_.base, sys_.potential, 96)
        dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=sys_.zeta)
        mu, _ = iterate_to_equilibrium(sys_, rpf, dm0, tol=1e-10, max_iter=120)
        bnd = regularity_constants(sys_, rpf)
        emp = disintegration_holder(mu)
        bound_ok &= emp <= bnd.bound + 1e-9
        details.append(f"{entry.name}: {emp:.3f}<={bnd.bound:.3f}")
    # product measures are exactly flat
    rpf_t = build_rpf(tsujii_system.base, tsujii_system.potential, 64)
    pm = product_measure(np.ones(64), ek.uniform_atoms(8), rpf=rpf_t, reference="m",
                         zeta=1.0)
    product_ok = disintegration_holder(pm) == 0.0
    # one-step recursion on 100 random positive measures (compression off)
    recursion_worst = -np.inf
    plan = [("tsujii", 64, 40), ("doubling-linear", 64, 40), ("mp-geometric-holder", 32, 20)]
    for name, n, trials in plan:
        sys_ = gallery_entry(name).build()
        rpf = build_rpf(sys_.base, sys_.potential, n)
        bnd = regularity_constants(sys_, rpf)
        for _ in range(trials):
            fib = random_measure(rng, int(rng.integers(1, 6)), "probability")
            dm = product_measure(np.ones(n), fib, rpf=rpf, reference="m",
                                 zeta=sys_.zeta)
            for _ in range(int(rng.integers(0, 2))):
                dm = apply_F_phih_normalized(sys_, rpf, dm, 1e-12, 10**9)
            h0 = disintegration_holder(dm)
            ln = linf_norm(dm)
            out = apply_F_phih_normalized(sys_, rpf, dm, 1e-12, 10**9)
            recursion_worst = max(
                recursion_worst,
                disintegration_holder(out) - (bnd.beta * h0 + bnd.D * ln),
            )
    recursion_ok = recursion_worst <= 1e-6
    ok = bound_ok and product_ok and recursion_ok
    assert report(9, ok, "; ".join(details) + f"; recursion slack={recursion_worst:.2e}")


def test_criterion_10_correlations(tsujii_system, tsujii_rpf128, tsujii_equilibrium128):
    """Exponential decay of correlations at the measured gap rate."""
    # constant u: exact zero on both systems
    worst_const = 0.0
    mu_t, _ = tsujii_equilibrium128
    one = Observable.constant(1.0)
    y = Observable.coord_y()
    tab = correlation_operator(tsujii_system, tsujii_rpf128, mu_t, one, y, N=15)
    worst_const = max(worst_const, max(tab.values))
    sys_d = gallery_entry("doubling-linear").build()
    rpf_d = build_rpf(sys_d.base, sys_d.potential, 64)
    dm0 = product_measure(1.0, dirac(1.0), rpf=rpf_d, reference="m", zeta=1.0)
    mu_d, _ = iterate_to_equilibrium(sys_d, rpf_d, dm0, tol=1e-10, max_iter=60)
    x_obs = Observable.coord_x()
    tab_d1 = correlation_operator(sys_d, rpf_d, mu_d, one, x_obs, N=15)
    worst_const = max(worst_const, max(tab_d1.values))
    const_ok = worst_const <= 1e-9
    # fitted rate below the measured gap rate + 0.05
    gap_t = estimate_spectral_gap(tsujii_system, tsujii_rpf128, trials=6, n_steps=13,
                                  seed=0)
    fit_t = fit_exponential(correlation_operator(tsujii_system, tsujii_rpf128, mu_t,
                                                 y, y, N=16))
    gap_d = estimate_spectral_gap(sys_d, rpf_d, trials=6, n_steps=13, seed=0)
    fit_d = fit_exponential(correlation_operator(sys_d, rpf_d, mu_d, x_obs, x_obs,
                                                 N=16))
    rate_ok = fit_t.rate <= gap_t.xi + 0.05 and fit_d.rate <= gap_d.xi + 0.05
    # C_0(u, u) is a variance
    var = integrate(mu_t, lambda xx, yy: np.asarray(y.fn(xx, yy)) ** 2) \
        - integrate(mu_t, y) ** 2
    var_ok = var >= -1e-10
    ok = const_ok and rate_ok and var_ok
    assert report(10, ok, f"max C_n(1,g)={worst_const:.1e}; "
                  f"tsujii {fit_t.rate:.3f}<=xi+0.05={gap_t.xi+0.05:.3f}; "
                  f"doubling {fit_d.rate:.3f}<={gap_d.xi+0.05:.3f}; C_0={var:.2e}")


def _random_holder_pair(rng):
    def mk():
        a, b, c = rng.uniform(-1, 1, 3)
        k = int(rng.integers(1, 4))
        return Observable(
            fn=lambda x, y, _a=a, _b=b, _c=c, _k=k: (
                _a * np.cos(2 * np.pi * _k * x)
                + _b * np.asarray(y, dtype=float)
                + _c * np.asarray(y, dtype=float) ** 2
            ),
            zeta=1.0,
            holder_bound=float(abs(a) * (1 + 2 * np.pi * k) + 3 * abs(b) + 5 * abs(c)),
        )
    return mk(), mk()


def test_criterion_11_duality_identity(tsujii_system, tsujii_rpf512,
                                       tsujii_equilibrium512):
    """int (g o F) s dmu0 = int g d Fbar(s mu0) within 1e-8.

    The discrete operator spreads every source cell across neighboring
    output cells, so the pointwise composition g o F can only match to
    quadrature accuracy O(h^2); see the convergence-order test in
    test_transfer.py and the decisions ledger.
    """
    rng = np.random.default_rng(111)
    worst = 0.0
    mu_t, _ = tsujii_equilibrium512
    sys_d = gallery_entry("doubling-linear").build()
    rpf_d = build_rpf(sys_d.base, sys_d.potential, 512)
    dm0 = product_measure(1.0, dirac(1.0), rpf=rpf_d, reference="m", zeta=1.0)
    mu_d, _ = iterate_to_equilibrium(sys_d, rpf_d, dm0, tol=1e-11, max_iter=80)
    for sys_, rpf, mu in ((tsujii_system, tsujii_rpf512, mu_t),
                          (sys_d, rpf_d, mu_d)):
        for _ in range(25):
            s, g = _random_holder_pair(rng)

            def g_of_f(x, yy):
                return np.asarray(
                    g.fn(sys_.base.apply(x), sys_.fiber(x, np.asarray(yy, dtype=float))),
                    dtype=float,
                )

            smu = multiply_observable(mu, s)
            lhs = integrate(apply_F_phih_normalized(sys_, rpf, smu), g)
            rhs = integrate(mu, lambda x, yy: g_of_f(x, yy) * np.asarray(s.fn(x, yy)))
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    report(11, ok, f"worst |lhs-rhs|={worst:.2e} at n=512 (tolerance 1e-8)")
    assert ok, (
        f"duality defect {worst:.3e} exceeds 1e-8: the pointwise composition "
        "g o F cannot match the cell-spreading discrete operator below "
        "quadrature accuracy O(1/n^2); see decisions ledger"
    )


def test_criterion_12_hypothesis_checker():
    """Gallery hypothesis reports pass; the tripling bound matches exactly."""
    entries_ok = True
    for entry in gallery():
        rep = check_example_constants(entry)
        entries_ok &= rep.f1_pass and rep.f2_pass and rep.combined_pass
    formula_ok = True
    for zeta in (0.25, 0.5, 1.0):
        got = combined_expansion_bound(3, 1, 3.0, 1.0, zeta, 0.0)
        formula_ok &= abs(got - (2.0 * 3.0**-zeta + 1.0) / 3.0) <= 1e-12
    ok = entries_ok and formula_ok
    assert report(12, ok, f"entries={entries_ok}, tripling formula={formula_ok}")


def test_criterion_13_determinism_and_performance(tmp_path):
    """cmd_equilibrium at n=512, cap 64, 100 iterations: fast, reproducible."""
    cfg_text = """
[system]
gallery = tsujii

[discretization]
base_cells = 512
fiber_atom_cap = 64
compress_delta = 1e-4

[run]
max_iter = 100
tol = 0
seed = 0

[output]
directory = {out}
"""
    times = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / f"out_{tag}"
        cfg.write_text(cfg_text.format(out=out))
        t0 = time.perf_counter()
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        times.append(time.perf_counter() - t0)
    same = all(
        (tmp_path / "out_a" / f).read_bytes() == (tmp_path / "out_b" / f).read_bytes()
        for f in ("equilibrium.json", "convergence.csv", "eigen.json")
    )
    conv = json.loads((tmp_path / "out_a" / "convergence.json").read_text())
    ok = max(times) < 60.0 and same and conv["iterations"] == 100
    assert report(13, ok, f"run times {times[0]:.1f}s/{times[1]:.1f}s, "
                  f"byte-identical={same}")
