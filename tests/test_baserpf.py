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
        assert tw.kind == "twisted" and rpf.twisted() is rpf.twisted()
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


class TestKernelDecay:
    def test_doubling_gap(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        dec = spectral_radius_on_kernel(rpf, 1.0, samples=10)
        assert dec.r_hat <= 0.5 + 0.05
        assert rpf.gap is dec

    def test_zero_vector_trivial(self):
        rpf = build_rpf(linear_expanding(2), Potential.constant(0.0), 64)
        g = rpf.h * float(np.dot(rpf.nu, np.zeros(rpf.n)))  # identically zero
        assert np.max(np.abs(_gather(rpf.src, rpf.wphi, g) / rpf.lam)) == 0.0

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
