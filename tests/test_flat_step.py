"""The vectorized operator step against a per-cell oracle.

The oracle builds each output restriction cell by cell: the
branch-weighted pushforwards of the source restrictions concatenated in
(branch, stencil side) order, then the per-fiber loops that
``canonicalize`` and ``compress_to_cap`` replaced (``conftest``), so the
flat step is not checked against its own segment kernels.  The flat step
must give the same arrays bit for bit.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodykit as ek
from ergodykit.measures import AtomicSignedMeasure, seeded, zero_measure
from ergodykit.transfer import _random_zero_average, _step

from conftest import canonicalize_loop, compress_to_cap_loop, random_measure

GALLERY = [e.name for e in ek.gallery()]


@functools.lru_cache(maxsize=None)
def _system(name):
    sys_ = ek.gallery_entry(name).build()
    return sys_, ek.build_rpf(sys_.base, sys_.potential, 32)


def _oracle(sys_, rpf, dm, branch_weights, delta, cap):
    """Per-cell restrictions and compression widths from the per-fiber loops."""
    fibers, widths = [], []
    restr = dm.fibers
    for j in range(rpf.n):
        pos, w = [], []
        for i in range(rpf.deg):
            for s in range(2):
                wijs = float(branch_weights[i, j, s])
                piece = restr[rpf.src[i, j, s]]
                if wijs == 0.0 or piece.n_atoms == 0:
                    continue
                pos.append(sys_.fiber(float(rpf.preimages[i, j]), piece.positions))
                w.append(wijs * piece.weights)
        used = delta
        if not pos:
            fibers.append(zero_measure())
        else:
            raw = canonicalize_loop(
                AtomicSignedMeasure(np.concatenate(pos), np.concatenate(w))
            )
            if raw.n_atoms > 1:
                raw, used = compress_to_cap_loop(raw, delta, cap)
            fibers.append(raw)
        widths.append(used)
    return fibers, np.array(widths)


def _measure(sys_, rpf, kind, seed, reference):
    rng = np.random.default_rng(seed)
    if kind == "signed":
        dm = _random_zero_average(rpf, sys_.zeta, seeded(seed))
    else:
        fib = random_measure(rng, int(rng.integers(1, 6)), "probability")
        dm = ek.product_measure(np.ones(rpf.n), fib, rpf=rpf, reference="m", zeta=sys_.zeta)
        for _ in range(int(rng.integers(0, 4))):
            dm = ek.apply_F_phih_normalized(sys_, rpf, dm)
    if kind == "empty-cells":
        fibers = list(dm.fibers)
        for j in rng.choice(rpf.n, size=rpf.n // 3, replace=False):
            fibers[j] = zero_measure()
        dm = ek.DisintegratedMeasure.from_fibers(
            dm.x, dm.ref_masses, fibers, dm.reference, dm.zeta,
        )
    if reference == "nu":
        dm = replace(dm, ref_masses=rpf.nu.copy(), reference="nu")
    return dm


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(GALLERY),
    operator=st.sampled_from(["normalized", "plain"]),
    kind=st.sampled_from(["positive", "signed", "empty-cells"]),
    cap=st.sampled_from([4, 64]),
    delta=st.sampled_from([1e-4, 1.0 / 63.0]),
    seed=st.integers(0, 2**16),
)
def test_flat_step_matches_per_cell_oracle(name, operator, kind, cap, delta, seed):
    sys_, rpf = _system(name)
    ref = "m" if operator == "normalized" else "nu"
    dm = _measure(sys_, rpf, kind, seed, ref)
    bw = rpf.weights if operator == "normalized" else rpf.wphi
    ref_masses = rpf.m if operator == "normalized" else rpf.nu
    out, widths = _step(sys_, rpf, dm, bw, ref_masses, delta, cap)
    if operator == "normalized":
        public = ek.apply_F_phih_normalized(sys_, rpf, dm, delta, cap)
    else:
        public = ek.apply_F_phi(sys_, rpf, dm, delta, cap)
    assert np.array_equal(public.positions, out.positions)
    assert np.array_equal(public.weights, out.weights)
    expect, expect_widths = _oracle(sys_, rpf, dm, bw, delta, cap)
    assert np.array_equal(widths, expect_widths)
    for j in range(rpf.n):
        got = out.fiber(j)
        assert np.array_equal(got.positions, expect[j].positions), j
        assert np.array_equal(got.weights, expect[j].weights), j
        assert got.n_atoms <= cap


def test_oracle_cases_cover_doubling_and_empty_cells():
    # the signed cap-4 case doubles; the empty-cell case leaves cells empty
    sys_, rpf = _system("tsujii")
    dm = _measure(sys_, rpf, "signed", 0, "m")
    _, widths = _step(sys_, rpf, dm, rpf.weights, rpf.m, 1e-4, 4)
    assert np.any(widths > 1e-4)
    dm = _measure(sys_, rpf, "empty-cells", 0, "m")
    assert np.any(np.diff(dm.offsets) == 0)


def test_one_fiber_call_per_step():
    sys_, rpf = _system("tsujii")
    calls = []
    fn = sys_.fiber.fn
    counting = ek.FiberMap(
        fn=lambda x, y: calls.append(np.shape(y)) or fn(x, y),
        alpha=sys_.fiber.alpha, g_holder=sys_.fiber.g_holder,
    )
    counted = ek.SkewSystem(sys_.base, counting, sys_.potential, sys_.zeta)
    dm = ek.product_measure(1.0, ek.dirac(1.0), rpf=rpf)
    for _ in range(3):
        dm = ek.apply_F_phih_normalized(counted, rpf, dm)
    assert len(calls) == 3


def test_step_rejects_non_elementwise_fiber_map():
    sys_, rpf = _system("doubling-linear")
    scalar_only = ek.FiberMap(fn=lambda x, y: 0.5 * np.asarray(y)[:1], alpha=0.5)
    bad = ek.SkewSystem(sys_.base, scalar_only, sys_.potential, sys_.zeta)
    dm = ek.product_measure(1.0, 0.5 * (ek.dirac(0.5) + ek.dirac(1.0)), rpf=rpf)
    with pytest.raises(ValueError, match="elementwise"):
        ek.apply_F_phih_normalized(bad, rpf, dm)


def test_step_names_escaping_image():
    sys_, rpf = _system("doubling-linear")
    escaping = ek.FiberMap(fn=lambda x, y: 2.0 * np.asarray(y), alpha=0.5)
    bad = ek.SkewSystem(sys_.base, escaping, sys_.potential, sys_.zeta)
    dm = ek.product_measure(1.0, ek.dirac(0.9), rpf=rpf)
    with pytest.raises(ek.measures.MeasureDomainError, match="1.8"):
        ek.apply_F_phih_normalized(bad, rpf, dm)


@pytest.mark.parametrize("cap", [0, 1])
def test_step_rejects_cap_below_two(cap):
    sys_, rpf = _system("tsujii")
    dm = _measure(sys_, rpf, "signed", 1, "m")
    with pytest.raises(ValueError, match="at least 2"):
        ek.apply_F_phih_normalized(sys_, rpf, dm, 1e-4, cap)
