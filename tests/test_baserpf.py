import dataclasses
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodykit as ek
from ergodykit import baserpf
from ergodykit.baserpf import (
    ConstructionError,
    Potential,
    _densify,
    _gather,
    _scatter,
    build_rpf,
    check_hypotheses,
    combined_expansion_bound,
    discrete_holder_constant,
    spectral_radius_on_kernel,
    twisted_operator,
    verify_lasota_yorke,
)
from ergodykit.systems import (
    gallery,
    linear_expanding,
    manneville_pomeau,
    mp_geometric_potential,
)

from conftest import apply_loop, branch_table_loop, holder_rows_all_pairs


# values whose differences stay far from the subnormal range
_holder_values = st.one_of(
    st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
)


@pytest.fixture(scope="module")
def tripling_rpf():
    base = linear_expanding(3)
    pot = Potential.constant(-np.log(3.0))
    return build_rpf(base, pot, 64)


class TestEigenOracles:
    def test_doubling_flat_potential(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        assert rpf.lam == pytest.approx(2.0, abs=1e-8)
        assert np.max(np.abs(rpf.h - 1.0)) < 1e-8
        assert np.max(np.abs(rpf.nu - 1.0 / 64)) < 1e-8

    def test_equal_content_discretizations_compare_and_hash_by_identity(self, tripling_rpf):
        a, b = tripling_rpf, dataclasses.replace(tripling_rpf)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_tripling_log3_is_averaging(self, tripling_rpf):
        rpf = tripling_rpf
        assert rpf.lam == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(rpf.nu - 1.0 / 64)) < 1e-8
        assert np.max(np.abs(rpf.m - 1.0 / 64)) < 1e-8

    def test_mp_flat_potential(self):
        rpf = build_rpf(manneville_pomeau(0.5), Potential.constant(0.0, zeta=0.5), 512)
        assert rpf.lam == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(rpf.h - 1.0)) < 1e-6
        assert np.all(rpf.nu >= 0)
        assert rpf.nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_residuals_and_perron_structure(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 128)
        assert rpf.resid_right <= 1e-8
        assert rpf.resid_left <= 1e-8
        assert rpf.lam > 0
        assert np.all(rpf.h > 0)
        assert np.all(rpf.nu >= 0)
        assert np.max(np.abs(rpf.m - rpf.h * rpf.nu)) < 1e-15

    def test_conformal_duality(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.05), 128)
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = rng.standard_normal(rpf.n)
            lhs = float(rpf.nu @ _gather(rpf.src, rpf.wphi, g)) / rpf.lam
            assert lhs == pytest.approx(float(rpf.nu @ g), abs=1e-8)

    def test_grid_refinement(self):
        pot = mp_geometric_potential(0.5, 0.1)
        lam_n = build_rpf(manneville_pomeau(0.5), pot, 128).lam
        lam_2n = build_rpf(manneville_pomeau(0.5), pot, 256).lam
        assert abs(lam_n - lam_2n) < 10.0 / 128  # empirical O(1/n) agreement

    def test_too_few_cells(self):
        with pytest.raises(ConstructionError):
            build_rpf(linear_expanding(2), Potential.constant(0.0), 4)


class TestStencil:
    @pytest.mark.parametrize("entry", gallery(), ids=lambda e: e.name)
    def test_gather_scatter_match_exported_matrix(self, entry, tmp_path):
        import json

        sys_ = entry.build()
        rpf = build_rpf(sys_.base, sys_.potential, 64)
        rpf.export_matrix(tmp_path / "m.json", "json")
        exported = np.array(json.loads((tmp_path / "m.json").read_text()))
        assert np.array_equal(exported, _densify(rpf.src, rpf.wphi))
        rng = np.random.default_rng(7)
        for w in (rpf.wphi, rpf.weights):
            dense = _densify(rpf.src, w)
            for _ in range(10):
                v = rng.standard_normal(rpf.n)
                u = rng.standard_normal(rpf.n)
                assert np.max(np.abs(_gather(rpf.src, w, v) - dense @ v)) <= 1e-14
                assert np.max(np.abs(_scatter(rpf.src, w, u) - dense.T @ u)) <= 1e-14

    @pytest.mark.parametrize("entry", gallery(), ids=lambda e: e.name)
    def test_gather_rows_match_one_vector_sum(self, entry):
        # the branch-by-branch sum adds in the order of the one-expression
        # form, for one vector and for every row of a stack of them
        sys_ = entry.build()
        rng = np.random.default_rng(8)
        for n in (16, 97, 512):
            rpf = build_rpf(sys_.base, sys_.potential, n)
            rows = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-6, 6, (6, n))
            for w in (rpf.wphi, rpf.weights, twisted_operator(rpf).wphi):
                stacked = _gather(rpf.src, w, rows)
                assert stacked.flags.c_contiguous
                for r, v in zip(stacked, rows):
                    one = (w * v[rpf.src]).sum(axis=(0, 2))
                    assert _gather(rpf.src, w, v).tobytes() == one.tobytes()
                    assert r.tobytes() == one.tobytes()

    def test_holds_no_square_array(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 64)
        for d in (rpf, twisted_operator(rpf)):
            assert not any(
                getattr(v, "ndim", 0) == 2 and v.shape[0] == v.shape[1]
                for v in vars(d).values()
            )


class TestTwistedOperator:
    def test_doubling_twist_is_identity(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        tw = twisted_operator(rpf)
        assert tw.src is rpf.src and np.max(np.abs(tw.wphi - rpf.wphi)) < 1e-12

    def test_stencil_is_conjugation_by_h(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 128)
        tw = twisted_operator(rpf)
        dense = _densify(rpf.src, rpf.wphi)
        conj = dense * (rpf.h[None, :] / rpf.h[:, None])
        assert np.max(np.abs(_densify(tw.src, tw.wphi) - conj)) <= 1e-14
        assert tw.kind == "twisted"
        assert tw.src is rpf.src and tw.weights is rpf.weights
        assert np.array_equal(tw.h, np.ones(rpf.n)) and np.array_equal(tw.nu, rpf.m)

    def test_row_sums_fix_constant_vector(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 128)
        tw = twisted_operator(rpf)
        row_sums = _gather(tw.src, tw.wphi, np.ones(tw.n))
        assert np.max(np.abs(row_sums / rpf.lam - 1.0)) < 1e-8

    def test_conjugation_preserves_spectrum(self):
        # independent eigensolve as oracle for the twisted leading eigenvalue
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 128)
        tw = twisted_operator(rpf)
        top = float(np.max(np.abs(np.linalg.eigvals(_densify(tw.src, tw.wphi)))))
        assert top == pytest.approx(rpf.lam, abs=1e-8)

    def test_twisted_conformal_measure_is_m(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 128)
        tw = twisted_operator(rpf)
        assert np.max(np.abs(tw.nu - rpf.m)) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.standard_normal(tw.n)
            lhs = float(tw.m @ _gather(tw.src, tw.wphi, g)) / tw.lam
            assert lhs == pytest.approx(float(tw.m @ g), abs=1e-8)


class TestCombinedBound:
    def test_mp_formula(self):
        # deg 2, q 1, sigma 2, L 1 at zeta 1: e^eps (1/2 + 1) / 2
        for eps in (0.0, 0.1, float(np.log(4 / 3)) - 1e-9):
            assert combined_expansion_bound(2, 1, 2.0, 1.0, 1.0, eps) == pytest.approx(
                0.75 * np.exp(eps), abs=1e-12
            )
        assert combined_expansion_bound(2, 1, 2.0, 1.0, 1.0, np.log(4 / 3)) >= 1.0 - 1e-12

    def test_perturbed_tripling(self):
        # deg 3, q 1, sigma 3, L ~ 1: (2 * 3**-zeta + 1) / 3 for eps -> 0
        for zeta in (0.25, 0.5, 1.0):
            val = combined_expansion_bound(3, 1, 3.0, 1.0, zeta, 0.0)
            assert val == pytest.approx((2.0 * 3.0**-zeta + 1.0) / 3.0, abs=1e-12)
            assert val < 1.0

    def test_q_zero_ignores_L(self):
        assert combined_expansion_bound(2, 0, 2.0, 0.5, 1.0, 0.0) == pytest.approx(0.5)


class TestCheckHypotheses:
    def test_mp_oscillation_bound(self):
        # the geometric family has oscillation at most |t| log(2 + alpha)
        pot = mp_geometric_potential(0.5, 0.05)
        rep = check_hypotheses(manneville_pomeau(0.5), pot, zeta=0.5)
        assert rep.oscillation <= 0.05 * np.log(2.5) + 1e-12
        assert rep.f1_pass and rep.f2_pass and rep.combined_pass

    def test_mp_flat_passes(self):
        rep = check_hypotheses(manneville_pomeau(0.5), Potential.constant(0.0), 1.0)
        assert rep.epsilon_phi == 0.0
        assert rep.combined_value == pytest.approx(0.75, abs=1e-12)
        assert rep.combined_pass

    def test_linear_base(self):
        rep = check_hypotheses(linear_expanding(3), Potential.constant(-np.log(3.0)), 0.5)
        assert rep.f1_pass and rep.f2_pass and rep.combined_pass
        assert rep.combined_value == pytest.approx(3.0**-0.5, abs=1e-12)
        assert max(rep.branch_lipschitz) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_failures_are_report_content(self):
        # a potential with huge oscillation fails (f3) without raising
        pot = Potential.from_callable(lambda x: 3.0 * np.sin(2 * np.pi * x), zeta=1.0)
        rep = check_hypotheses(linear_expanding(2), pot, 1.0)
        assert not rep.combined_pass

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_fails(self, zeta, bad):
        # non-finite on part of the second branch: the builtin max dropped a
        # NaN (a finite constant and combined_pass = True), and -inf divided
        # by exp(-inf) = 0 raised ZeroDivisionError
        fn = lambda x: np.where(np.asarray(x) > 0.7, bad, -np.log(2.0))
        pot = Potential(fn=fn, zeta=zeta, holder_const=0.0, sup=0.0, inf=0.0)
        rep = check_hypotheses(linear_expanding(2), pot, zeta, gridsize=4096)
        assert not np.isfinite(rep.epsilon_phi)
        assert np.isnan(rep.holder_exp_phi) == (bad != -np.inf)
        assert not rep.combined_pass

    def test_report_dict_shape(self):
        rep = check_hypotheses(linear_expanding(2), Potential.constant(0.0), 1.0)
        d = rep.to_dict()
        assert d["f1"]["pass"] and d["f2"]["pass"] and d["f3"]["pass"]


class TestLasotaYorke:
    def test_doubling_rate(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        fit = verify_lasota_yorke(rpf, 1.0, samples=10)
        assert fit.beta1 <= 0.5 + 0.05
        assert fit.contracting

    def test_tripling_rate(self, tripling_rpf):
        fit = verify_lasota_yorke(tripling_rpf, 1.0, samples=10)
        assert fit.beta1 <= 1.0 / 3.0 + 0.05

    def test_constant_vector_forces_c1(self, tripling_rpf):
        # |Lbar g|_w = |g|_w for constant g, so C1 >= 1
        fit = verify_lasota_yorke(tripling_rpf, 1.0, samples=10)
        assert fit.C1 >= 1.0

    def test_sample_validation(self, tripling_rpf):
        with pytest.raises(ValueError):
            verify_lasota_yorke(tripling_rpf, 1.0, samples=3)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_step_validation(self, tripling_rpf, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            verify_lasota_yorke(tripling_rpf, 1.0, samples=10, n_steps=n_steps)


def _strong_norm(x, v, zeta):
    return discrete_holder_constant(x, v, zeta) + float(np.max(np.abs(v)))


def _apply_one(rpf, v):
    return (rpf.wphi * v[rpf.src]).sum(axis=(0, 2)) / rpf.lam


def _kernel_decay_one_vector_at_a_time(rpf, zeta, samples=10, n_steps=30, seed=0):
    """The per-vector loop the batched ``spectral_radius_on_kernel`` replaced."""
    if rpf.kind == "twisted":
        proj = lambda g: g - float(np.dot(rpf.m, g)) * np.ones(rpf.n)
    else:
        proj = lambda g: g - float(np.dot(rpf.nu, g)) * rpf.h
    r_hat, d_hat = 0.0, 1.0
    for g in baserpf._test_vectors(rpf.x, samples, seed):
        v = proj(g)
        s0 = _strong_norm(rpf.x, v, zeta)
        if s0 < 1e-12:
            continue
        sn = []
        for _ in range(n_steps):
            v = proj(_apply_one(rpf, v))
            sn.append(_strong_norm(rpf.x, v, zeta))
        sn = np.asarray(sn)
        decaying = (sn > 1e-13 * s0) & (np.r_[np.inf, sn[:-1]] > sn)
        usable = np.arange(n_steps if decaying.all() else int(np.argmin(decaying)))
        if usable.size < 4:
            continue
        tail = usable[usable.size // 2:]
        slope, _ = np.polyfit(tail + 1.0, np.log(sn[tail]), 1)
        rate = float(np.exp(slope))
        r_hat = max(r_hat, rate)
        if rate > 0:
            d_hat = max(d_hat, float(np.max(sn[usable] / (s0 * rate ** (usable + 1.0)))))
    return r_hat, d_hat


def _ly_one_vector_at_a_time(rpf, zeta, samples=10, n_steps=30, seed=0):
    """C1 and the excess envelope rn of the per-vector Lasota-Yorke loop."""
    c1, trajs = 1.0, []
    for g in baserpf._test_vectors(rpf.x, samples, seed):
        s0, w0 = _strong_norm(rpf.x, g, zeta), float(np.max(np.abs(g)))
        sn, v = [], g.copy()
        for _ in range(n_steps):
            v = _apply_one(rpf, v)
            sn.append(_strong_norm(rpf.x, v, zeta))
        trajs.append((s0, w0, sn))
        c1 = max(c1, max(sn[-5:]) / max(w0, 1e-300))
    rn = np.zeros(n_steps)
    for s0, w0, sn in trajs:
        rn = np.maximum(rn, np.maximum(0.0, np.asarray(sn) - c1 * w0) / max(s0, 1e-300))
    return c1, rn


class TestTestVectors:
    """The kernel-decay test vectors: seeded standard-library draws."""

    X = (np.arange(64) + 0.5) / 64

    def test_same_seed_same_bits(self):
        a = np.array(baserpf._test_vectors(self.X, 11, seed=5))
        b = np.array(baserpf._test_vectors(self.X, 11, seed=5))
        assert a.shape == (11, 64)
        assert a.tobytes() == b.tobytes()
        assert np.max(np.abs(a), axis=1).tolist() == [1.0] * 11

    def test_other_seed_other_vectors(self):
        a = np.array(baserpf._test_vectors(self.X, 10, seed=0))
        b = np.array(baserpf._test_vectors(self.X, 10, seed=1))
        assert all(not np.array_equal(u, v) for u, v in zip(a, b))


class TestBatchedTestVectors:
    """All test vectors iterate as one array, each giving, bit for bit, the
    numbers it gives alone."""

    @pytest.mark.parametrize("entry", gallery(), ids=lambda e: e.name)
    @pytest.mark.parametrize("n", [16, 97])
    def test_kernel_decay_matches_per_vector_loop(self, entry, n):
        sys_ = entry.build()
        rpf = build_rpf(sys_.base, sys_.potential, n)
        for op in (rpf, twisted_operator(rpf)):
            for zeta in {1.0, 0.5, sys_.zeta}:
                got = spectral_radius_on_kernel(op, zeta, samples=12, n_steps=25, seed=n)
                want = _kernel_decay_one_vector_at_a_time(op, zeta, 12, 25, seed=n)
                assert (got.r_hat, got.D_hat) == want

    @pytest.mark.parametrize("entry", gallery(), ids=lambda e: e.name)
    def test_lasota_yorke_matches_per_vector_loop(self, entry):
        sys_ = entry.build()
        rpf = build_rpf(sys_.base, sys_.potential, 40)
        for zeta in (1.0, 0.5):
            c1, rn = _ly_one_vector_at_a_time(rpf, zeta, samples=11, n_steps=20, seed=3)
            seen = {}
            real = baserpf._strong_norms

            def spy(*args, **kwargs):
                seen["out"] = real(*args, **kwargs)
                return seen["out"]

            with mock.patch.object(baserpf, "_strong_norms", spy):
                fit = verify_lasota_yorke(rpf, zeta, samples=11, n_steps=20, seed=3)
            s0, sn = seen["out"]
            w0 = np.array([np.max(np.abs(g)) for g in
                           baserpf._test_vectors(rpf.x, 11, 3)])
            assert fit.C1 == c1
            excess = np.maximum(0.0, sn - fit.C1 * w0) / np.maximum(s0, 1e-300)
            assert excess.max(axis=1).tobytes() == rn.tobytes()


class TestEnvelopeFit:
    """The one geometric envelope fit of both Lasota-Yorke estimates."""

    FLOORS = [1e-13, 1e-12]  # verify_lasota_yorke, verify_LY_S1

    @staticmethod
    def _covered(rn, floor):
        beta, pre = baserpf._envelope_fit(rn, floor)
        k = np.nonzero(rn > floor)[0]
        assert np.all(rn[k] <= pre * beta ** (k + 1.0) * (1.0 + 1e-12))
        return beta, pre

    @pytest.mark.parametrize("floor", FLOORS)
    def test_empty(self, floor):
        for rn in (np.zeros(0), np.zeros(20), np.full(20, floor)):
            assert self._covered(rn, floor) == (0.0, 1.0)

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("k", [0, 3, 19])
    def test_one_step(self, floor, k):
        rn = np.zeros(20)
        rn[k] = 0.3
        beta, pre = self._covered(rn, floor)
        assert pre == 1.0 and beta == pytest.approx(0.3 ** (1.0 / (k + 1)), rel=1e-15)

    @pytest.mark.parametrize("rn, want", [
        (np.r_[np.zeros(23), 1e-12, 7.0], 5.22e-321),  # a subnormal prefactor
        (np.r_[np.zeros(11), 1e-12, 7.0, np.zeros(10), 1.0], 7.2248e-167),
    ])
    def test_envelope_beyond_float_range(self, rn, want):
        # beta**(k + 1) overflows, so the bound is checked in the log domain
        beta, pre = baserpf._envelope_fit(rn, 1e-13)
        k = np.nonzero(rn > 1e-13)[0]
        assert beta == 7e12 and pre == pytest.approx(want, rel=1e-3)
        assert np.all(np.log(rn[k]) <= np.log(pre) + (k + 1.0) * np.log(beta) + 1e-12)

    def test_no_finite_prefactor(self):
        # 1 at step 29 then 1.01e-13: beta = 1.01e-13 and B = beta**-29 > 1e308
        rn = np.r_[np.zeros(28), 1.0, 1.01e-13]
        assert baserpf._envelope_fit(rn, 1e-13) == (pytest.approx(1.01e-13), np.inf)

    def test_floor_selects_steps(self):
        rn = np.array([0.5, 5e-13, 0.0])
        assert self._covered(rn, 1e-12) == (0.5, 1.0)
        assert self._covered(rn, 1e-13) == (pytest.approx(1e-12), pytest.approx(5e11))

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(1e-12, 10.0),
        steps=st.lists(st.tuples(st.floats(1e-3, 1e3), st.booleans()), min_size=1, max_size=29),
        floor=st.sampled_from(FLOORS),
    )
    def test_many_steps(self, start, steps, floor):
        # an excess series as the fits see one: each step scales the excess
        # by at most 1e3 either way (a bounded operator), some steps are 0
        factors, zeroed = map(np.array, zip(*steps))
        rn = start * np.cumprod(np.r_[1.0, factors])
        rn[1:][zeroed] = 0.0
        beta, pre = self._covered(rn, floor)
        k = np.nonzero(rn > floor)[0]
        if k.size >= 2:
            # the envelope touches its largest step, and no smaller rate
            # covers every pair of steps
            assert np.max(rn[k] / (pre * beta ** (k + 1.0))) == pytest.approx(1.0)
            ratios = [(rn[j] / rn[i]) ** (1.0 / (j - i)) for i in k for j in k if j > i]
            assert beta == max(ratios)


class TestKernelDecay:
    def test_doubling_gap(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        dec = spectral_radius_on_kernel(rpf, 1.0, samples=10)
        assert dec.r_hat <= 0.5 + 0.05

    def test_discretization_is_not_written(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rpf.lam = 1.0
        before = dict(vars(rpf))
        spectral_radius_on_kernel(twisted_operator(rpf), 0.5, samples=10)
        spectral_radius_on_kernel(rpf, 1.0, samples=10)
        assert vars(rpf).keys() == before.keys()
        assert all(vars(rpf)[k] is v for k, v in before.items())

    def test_zero_vector_trivial(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        g = rpf.h * float(np.dot(rpf.nu, np.zeros(rpf.n)))  # identically zero
        assert np.max(np.abs(_gather(rpf.src, rpf.wphi, g) / rpf.lam)) == 0.0

    @pytest.mark.parametrize("entry", gallery(), ids=lambda e: e.name)
    def test_rate_stable_under_rounding_of_m(self, entry):
        # m enters the twisted projection; one ulp in m must not move the fit
        sys_ = entry.build()
        rpf = build_rpf(sys_.base, sys_.potential, 64)
        bumped = dataclasses.replace(rpf, m=rpf.m * (1.0 + 2.0**-52))
        a = spectral_radius_on_kernel(twisted_operator(rpf), sys_.zeta).r_hat
        b = spectral_radius_on_kernel(twisted_operator(bumped), sys_.zeta).r_hat
        assert a > 0.0
        assert abs(a - b) <= 1e-12 * a

    @pytest.mark.parametrize("n_steps", [0, 1, 3])
    def test_too_few_steps_for_the_fit(self, n_steps):
        # fewer than 4 steps leave no usable fit: refuse rather than claim
        # instant decay (r_hat = 0)
        sys_ = ek.gallery_entry("tsujii").build()
        rpf = twisted_operator(build_rpf(sys_.base, sys_.potential, 64))
        with pytest.raises(ValueError, match="n_steps"):
            spectral_radius_on_kernel(rpf, 1.0, n_steps=n_steps)
        assert spectral_radius_on_kernel(rpf, 1.0, n_steps=4).n_steps == 4

    def test_pinned_rate(self):
        # the bits of one r_hat at the default samples and seed: a change of
        # the test-vector generator has to edit this value on purpose
        sys_ = ek.gallery_entry("doubling-linear").build()
        rpf = twisted_operator(build_rpf(sys_.base, sys_.potential, 64))
        assert spectral_radius_on_kernel(rpf, 1.0).r_hat.hex() == "0x1.fbcc348fab603p-2"

    def test_twisted_matches_plain(self):
        rpf = build_rpf(manneville_pomeau(0.5), mp_geometric_potential(0.5, 0.1), 96)
        tw = twisted_operator(rpf)
        a = spectral_radius_on_kernel(rpf, 0.5, samples=10).r_hat
        b = spectral_radius_on_kernel(tw, 0.5, samples=10).r_hat
        assert a == pytest.approx(b, abs=0.02)


class TestHolderConstant:
    def test_linear_exact(self):
        x = (np.arange(64) + 0.5) / 64
        assert discrete_holder_constant(x, x, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_chunked_path_matches_dense(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=2200)  # unsorted; about 18 row blocks at zeta < 1
        v = np.sin(7 * x) + 0.1 * rng.standard_normal(2200)
        dx = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(dx, np.inf)
        dv = np.abs(v[:, None] - v[None, :])
        for zeta in (1.0, 0.7):
            ref = float(np.max(dv / dx**zeta))
            assert discrete_holder_constant(x, v, zeta) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        zeta=st.sampled_from([1.0, 0.7, 0.5]),
        block=st.sampled_from([1, 7, 64, baserpf._HOLDER_BLOCK_PAIRS]),
    )
    def test_matches_bruteforce_with_ties(self, data, zeta, block):
        grid = data.draw(st.integers(2, 400))
        ks = data.draw(st.lists(st.integers(0, grid - 1), max_size=70))
        vals = data.draw(st.lists(_holder_values, min_size=len(ks), max_size=len(ks)))
        first: dict[int, int] = {}
        x = np.array(ks, dtype=float) / grid
        v = np.array([vals[first.setdefault(k, i)] for i, k in enumerate(ks)], dtype=float)
        if ks and data.draw(st.booleans()):
            v[data.draw(st.integers(0, len(ks) - 1))] += 1.0  # may split a tie
        best = 0.0
        for i in range(x.size):
            for j in range(i + 1, x.size):
                dv = abs(v[i] - v[j])
                if x[i] == x[j]:
                    best = best if dv == 0.0 else float("inf")
                else:
                    best = max(best, dv / abs(x[i] - x[j]) ** zeta)
        with mock.patch.object(baserpf, "_HOLDER_BLOCK_PAIRS", block):
            got = discrete_holder_constant(x, v, zeta)
        if np.isinf(best):
            assert got == best
        else:
            assert got == pytest.approx(best, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    @pytest.mark.parametrize("block", [1, 5, baserpf._HOLDER_BLOCK_PAIRS])
    def test_rows_match_one_row_at_a_time(self, zeta, block):
        # ties with equal values, ties with a clash (inf), unsorted points
        rng = np.random.default_rng(4)
        x = rng.integers(0, 40, size=60) / 40.0
        rows = np.round(rng.standard_normal((7, 60)), 1)
        _, first = np.unique(x, return_inverse=True)
        rows[:5] = rows[:5][:, first]  # values follow the position: ties agree
        rows[1, np.flatnonzero(x == x[0])[-1]] += 1.0  # one clashing tie
        with mock.patch.object(baserpf, "_HOLDER_BLOCK_PAIRS", block):
            got = baserpf._holder_rows(x, rows, zeta)
            want = [discrete_holder_constant(x, r, zeta) for r in rows]
        assert got.tolist() == want
        assert np.isinf(got[1]) and np.isinf(got[5:]).all() and np.isfinite(got[[0, 2, 3, 4]]).all()


def _holder_points(kind, n, rng):
    if kind == "midpoints":
        return (np.arange(n) + 0.5) / n
    if kind == "unsorted":
        return rng.uniform(0.0, 1.0, n)
    if kind == "ties":
        return rng.integers(0, max(2, n // 2), n) / max(2, n // 2)
    if kind == "tiny":
        return 0.5 + rng.uniform(0.0, 1e-13, n)
    return rng.integers(0, 4 * n, n) * 5e-324  # subnormal gaps


def _holder_test_rows(x, rng):
    n = x.size
    u = np.argsort(np.argsort(x, kind="stable"), kind="stable") / n  # rank: smooth in x
    return np.array([
        np.full(n, 1.7),                                   # constant
        np.where(u > 0.37, 1.0, -0.5),                     # step
        np.sin(9.0 * u),                                   # smooth
        np.exp(-3.0 * u**0.3),                             # Manneville-Pomeau-like
        rng.standard_normal(n),                            # noise
        np.sin(40.0 * u) + 1e-3 * rng.standard_normal(n),  # noisy oscillation
    ])


class TestPrunedHolder:
    """The pruned zeta < 1 search against the all-pairs oracle, bit for bit."""

    @staticmethod
    def _check(x, rows, zeta):
        # subnormal gaps overflow some quotients to inf in both
        with np.errstate(over="ignore"):
            got = baserpf._holder_rows(x, rows, zeta)
            want = holder_rows_all_pairs(x, rows, zeta)
        assert np.array_equal(got, want), (got, want)

    @pytest.mark.parametrize("zeta", [0.25, 0.5, 0.7, 0.999])
    @pytest.mark.parametrize("kind", ["midpoints", "unsorted", "ties", "tiny", "subnormal"])
    def test_matches_all_pairs(self, zeta, kind):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 17, 63, 64, 65, 130, 257, 700, 1500):
            x = _holder_points(kind, n, rng)
            rows = _holder_test_rows(x, rng)
            if kind == "ties":
                # rows 0-3 take one value per position, but for a clashing
                # tie in row 1; the noise rows clash everywhere
                x[-1] = x[0]
                _, first, inv = np.unique(x, return_index=True, return_inverse=True)
                rows[:4] = rows[:4][:, first[inv]]
                rows[1, -1] += 1.0
            self._check(x, rows, zeta)
            with mock.patch.object(baserpf, "_HOLDER_BLOCK_POINTS", 1):  # many blocks at any n
                self._check(x, rows, zeta)

    @pytest.mark.parametrize("zeta", [0.5, 0.999])
    def test_many_blocks(self, zeta):
        # and one block, up to _HOLDER_BLOCK_POINTS points
        rng = np.random.default_rng(3)
        for n in (2, 63, 64, 65, 3000):
            x = rng.uniform(0.0, 1.0, n)
            self._check(x, _holder_test_rows(x, rng)[[1, 3, 4]], zeta)

    def test_gallery_potentials(self):
        # exp(phi) and phi on check_hypotheses' branch grids, at the system's
        # zeta and at 0.5, and on grids about one block
        for entry in gallery():
            sys_ = entry.build()
            for b in sys_.base.branches:
                for n in (2, 63, 64, 65, 2048):
                    xg = np.linspace(b.lo + 1e-12, b.hi - 1e-12, n)
                    phi = np.asarray(sys_.potential.fn(xg), dtype=float)
                    for zeta in {sys_.zeta, 0.5}:
                        self._check(xg, np.array([np.exp(phi), phi]), zeta)

    def test_kernel_decay_vectors(self):
        # the projected test vectors of spectral_radius_on_kernel and a few
        # of their images under the operator, at n = 1024 and about one block
        sys_ = ek.gallery_entry("mp-geometric-holder").build()
        for n in (63, 64, 65, 1024):
            rpf = build_rpf(sys_.base, sys_.potential, n)
            g = np.array(baserpf._test_vectors(rpf.x, 10))
            g -= np.array([np.dot(rpf.nu, r) for r in g])[:, None] * rpf.h
            for step in range(6):
                if step in (0, 1, 5):
                    self._check(rpf.x, g, sys_.zeta)
                g = baserpf._gather(rpf.src, rpf.wphi, g) / rpf.lam

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    @pytest.mark.parametrize(
        "block, points", [(50, 64), (baserpf._HOLDER_BLOCK_PAIRS, 64), (baserpf._HOLDER_BLOCK_PAIRS, 1)]
    )
    def test_non_finite_values_give_nan(self, zeta, block, points):
        x = np.linspace(0.0, 1.0, 50)
        one_nan = np.sin(9.0 * x)
        one_nan[20] = np.nan
        two_inf = np.sin(9.0 * x)
        two_inf[[3, 30]] = np.inf
        with (
            mock.patch.object(baserpf, "_HOLDER_BLOCK_PAIRS", block),
            mock.patch.object(baserpf, "_HOLDER_BLOCK_POINTS", points),
        ):
            assert np.isnan(discrete_holder_constant(x, one_nan, zeta))
            assert np.isnan(discrete_holder_constant(x, two_inf, zeta))
            assert np.isnan(discrete_holder_constant(x[:1], one_nan[20:21], zeta))
            # finite rows next to a non-finite one keep their constants
            rows = np.array([np.sin(9.0 * x), one_nan, np.cos(x), two_inf])
            got = baserpf._holder_rows(x, rows, zeta)
        assert np.isnan(got[[1, 3]]).all()
        assert np.array_equal(got[[0, 2]], holder_rows_all_pairs(x, rows[[0, 2]], zeta))

    @pytest.mark.parametrize("n", [50, 300])
    def test_non_finite_points_give_nan(self, n):
        x = np.linspace(0.0, 1.0, n)
        x[7] = np.nan
        for zeta in (1.0, 0.5):
            assert np.isnan(discrete_holder_constant(x, np.sin(x), zeta))


def _cascade_branch(basemap, x):
    """The branch the old cascade of masks chose for each point."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -1)
    done = np.zeros(x.shape, dtype=bool)
    last = len(basemap.branches) - 1
    for k, b in enumerate(basemap.branches):
        mask = ~done if k == last else (~done) & (x >= b.lo) & (x < b.hi)
        out[mask] = k
        done |= mask
    return out


def _labelled(basemap):
    """The same base map with forward k / 8 on branch k, so that apply
    returns the branch it chose."""
    brs = tuple(
        dataclasses.replace(b, forward=lambda x, _k=k: np.full(np.shape(x), _k / 8.0))
        for k, b in enumerate(basemap.branches)
    )
    return dataclasses.replace(basemap, branches=brs)


def _unordered_bases():
    lin3 = linear_expanding(3)
    mp = manneville_pomeau(0.5)
    b0, b1 = linear_expanding(2).branches
    # domains that overlap or leave a gap within the 1e-12 tiling slack
    over = (dataclasses.replace(b1, lo=0.5 - 4e-13), dataclasses.replace(b0, hi=0.5 + 6e-13))
    gap = (dataclasses.replace(b0, hi=0.5 - 5e-13), b1)
    c0, c1, c2 = lin3.branches
    over3 = (dataclasses.replace(c1, lo=1 / 3 - 3e-13), dataclasses.replace(c0, hi=1 / 3 + 4e-13), c2)
    return {
        "linear2": linear_expanding(2),
        "linear3": lin3,
        "linear3-reversed": dataclasses.replace(lin3, branches=lin3.branches[::-1]),
        "linear3-shuffled": dataclasses.replace(
            lin3, branches=tuple(lin3.branches[i] for i in (1, 2, 0))),
        "mp": mp,
        "mp-reversed": dataclasses.replace(mp, branches=mp.branches[::-1], q=1),
        "overlap": dataclasses.replace(linear_expanding(2), branches=over),
        "overlap-reversed": dataclasses.replace(linear_expanding(2), branches=over[::-1]),
        "gap": dataclasses.replace(linear_expanding(2), branches=gap),
        "overlap3": dataclasses.replace(lin3, branches=over3),
        "overlap3-swapped": dataclasses.replace(lin3, branches=(over3[1], over3[0], c2)),
    }


def _mask_loop_bases():
    return {**{f"linear{l}": linear_expanding(l) for l in (2, 3, 200)},
            **{e.name: e.build().base for e in gallery()}}


class TestBaseMapApply:
    @pytest.mark.parametrize("name", list(_unordered_bases()))
    def test_branch_choice_matches_cascade(self, name):
        base = _unordered_bases()[name]
        edges = np.array([e for b in base.branches for e in (b.lo, b.hi)])
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        x = np.concatenate([
            near, [0.0, -0.0, 1.0, -1e-17, 1.0 + 1e-16, 2.0, -3.0, np.nan, np.inf, -np.inf],
            np.random.default_rng(1).uniform(-0.1, 1.1, 500),
        ])
        labelled = _labelled(base)
        with np.errstate(invalid="ignore"):
            got = labelled.apply(x) * 8.0
        assert got.tolist() == _cascade_branch(base, x).tolist()
        assert float(labelled.apply(1.0)) * 8.0 == _cascade_branch(base, 1.0)

    @staticmethod
    def _jittered_tilings():
        """Tilings of 2 to 300 branches, exact and with every edge moved
        apart or together by up to 4e-13 (within the 1e-12 tiling slack),
        in order and shuffled."""
        rng = np.random.default_rng(4)
        for l in (2, 3, 17, 300):
            base = linear_expanding(l)
            yield base
            brs = [dataclasses.replace(b, lo=max(b.lo + float(rng.uniform(-4e-13, 4e-13)), 0.0),
                                       hi=min(b.hi + float(rng.uniform(-4e-13, 4e-13)), 1.0))
                   for b in base.branches]
            yield dataclasses.replace(base, branches=tuple(brs))
            yield dataclasses.replace(base, branches=tuple(rng.permutation(brs)))

    def test_branch_table_matches_scan(self):
        # the table the scan of every claim for every gap built, bit for bit
        bases = list(_unordered_bases().values()) + list(self._jittered_tilings())
        for base in bases:
            edges, pick = base._branch_of
            want_edges, want_pick = branch_table_loop(base.branches)
            assert edges.tobytes() == want_edges.tobytes()
            assert pick.tobytes() == want_pick.tobytes()

    def test_branch_table_matches_scan_on_any_claims(self):
        # claims on a coarse grid nest, overlap, coincide, are empty or inverted
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(300):
            ends = rng.choice(grid, (int(rng.integers(1, 40)), 2))
            brs = [types.SimpleNamespace(lo=float(a), hi=float(b)) for a, b in ends]
            edges, pick = baserpf._branch_table(brs)
            want_edges, want_pick = branch_table_loop(brs)
            assert edges.tobytes() == want_edges.tobytes()
            assert pick.tobytes() == want_pick.tobytes()

    @pytest.mark.parametrize("name", ["linear3-shuffled", "mp-reversed"])
    def test_forward_values_match_cascade(self, name):
        base = _unordered_bases()[name]
        x = np.r_[np.random.default_rng(2).uniform(0, 1, 300), 0.0, 0.5, 1.0, 1 / 3, 2 / 3]
        k = _cascade_branch(base, x)
        want = np.empty_like(x)
        for i, b in enumerate(base.branches):
            want[k == i] = b.forward(x[k == i])
        assert base.apply(x).tobytes() == np.clip(want, 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("name", list(_mask_loop_bases()))
    def test_matches_per_branch_mask_loop(self, name):
        # every shape, and the points no branch domain holds, bit for bit
        base = _mask_loop_bases()[name]
        rng = np.random.default_rng(6)
        inputs = [
            np.r_[rng.uniform(-0.1, 1.1, 400), 0.0, -0.0, 1.0, 1.0 + 1e-16, -1e-17, 2.0,
                  np.nan, np.inf, -np.inf],
            rng.uniform(0.0, 1.0, (5, 7)),
            rng.uniform(0.0, 1.0, (40, 3))[::3, 1:],
            np.array(0.75), 1.0, np.empty(0), np.empty((0, 4)),
        ]
        for x in inputs:
            with np.errstate(invalid="ignore"):
                got, want = base.apply(x), apply_loop(base, x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestExport:
    def test_matrix_round_trip(self, tripling_rpf, tmp_path):
        p_csv = tmp_path / "m.csv"
        p_json = tmp_path / "m.json"
        tripling_rpf.export_matrix(p_csv, "csv")
        tripling_rpf.export_matrix(p_json, "json")
        rows = [
            [float(v) for v in line.split(",")]
            for line in p_csv.read_text().strip().splitlines()
        ]
        dense = _densify(tripling_rpf.src, tripling_rpf.wphi)
        assert np.allclose(np.array(rows), dense)
        import json

        assert np.allclose(np.array(json.loads(p_json.read_text())), dense)
        v = np.random.default_rng(3).standard_normal(tripling_rpf.n)
        stencil_v = _gather(tripling_rpf.src, tripling_rpf.wphi, v)
        assert np.allclose(np.array(rows) @ v, stencil_v)
        with pytest.raises(ValueError):
            tripling_rpf.export_matrix(tmp_path / "m.x", "xml")


class TestMPInverse:
    def test_branch_boundary_value(self):
        mp = manneville_pomeau(0.5)
        # branch-0 forward at 1/2: x (1 + 2**a x**a) = 1
        assert float(mp.branches[0].forward(np.array([0.5]))[0]) == pytest.approx(1.0)
        assert float(mp.branches[1].forward(np.array([0.75]))[0]) == pytest.approx(0.5)

    def test_inverse_residual_on_grid(self):
        mp = manneville_pomeau(0.5)
        y = np.linspace(0.0, 1.0, 1000)
        x = mp.branches[0].inverse(y)
        assert np.max(np.abs(mp.branches[0].forward(x) - y)) <= 1e-12
