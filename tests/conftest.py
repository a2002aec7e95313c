from unittest import mock

import numpy as np
import pytest

import ergodykit as ek
from ergodykit import dualnorm
from ergodykit.measures import AtomicSignedMeasure, canonicalize, jordan, zero_measure


def counting_linprog(rows):
    """Patch ``dualnorm.linprog`` to append the row count of each solve to ``rows``."""
    real = dualnorm.linprog

    def counted(*args, **kwargs):
        rows.append(kwargs["A_ub"].shape[0])
        return real(*args, **kwargs)

    return mock.patch.object(dualnorm, "linprog", counted)


def random_measure(rng, n_atoms, kind="signed", grid=None):
    """Random canonical measure; kind in signed | probability | zero_mass."""
    if grid is None:
        pos = rng.uniform(0.0, 1.0, size=n_atoms)
    else:
        pos = rng.choice(grid, size=n_atoms, replace=False)
    if kind == "probability":
        w = rng.uniform(0.05, 1.0, size=n_atoms)
        w /= w.sum()
    elif kind == "zero_mass":
        w = rng.standard_normal(n_atoms)
        w -= w.mean()
        if n_atoms == 1:
            w = np.array([0.0])
    else:
        w = rng.standard_normal(n_atoms)
    return canonicalize(AtomicSignedMeasure(pos, w))


def canonicalize_loop(mu):
    """The one-fiber ``canonicalize`` that became a one-cell call of
    ``measures.canonicalize_segments``: a stable sort by position, then
    ``np.add.at`` over the runs of equal positions."""
    if mu.positions.size == 0:
        return zero_measure()
    order = np.argsort(mu.positions, kind="stable")
    pos = mu.positions[order]
    w = mu.weights[order]
    new_group = np.empty(pos.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = pos[1:] != pos[:-1]
    idx = np.cumsum(new_group) - 1
    merged_w = np.zeros(int(idx[-1]) + 1)
    np.add.at(merged_w, idx, w)
    merged_pos = pos[new_group]
    keep = merged_w != 0.0
    if not keep.any():
        return zero_measure()
    return AtomicSignedMeasure(merged_pos[keep], merged_w[keep])


def _cluster_same_sign_loop(pos, w, delta):
    # atoms sharing a bucket [k delta, (k+1) delta) merge to their centroid
    buckets = np.floor(pos / delta).astype(np.int64)
    new_group = np.empty(pos.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = buckets[1:] != buckets[:-1]
    idx = np.cumsum(new_group) - 1
    k = int(idx[-1]) + 1
    tot_w = np.zeros(k)
    tot_pw = np.zeros(k)
    np.add.at(tot_w, idx, w)
    np.add.at(tot_pw, idx, pos * w)
    return tot_pw / tot_w, tot_w


def compress_loop(mu, delta):
    """The one-fiber ``compress`` that became a one-cell call of
    ``measures._compress_segments``: each Jordan part clustered on its
    own, then ``canonicalize_loop``.  Oracle for canonical input only."""
    if mu.positions.size <= 1:
        return mu
    parts = jordan(mu)
    pieces_pos = []
    pieces_w = []
    for part, sign in ((parts.positive, 1.0), (parts.negative, -1.0)):
        if part.positions.size == 0:
            continue
        p, w = _cluster_same_sign_loop(part.positions, part.weights, delta)
        pieces_pos.append(p)
        pieces_w.append(sign * w)
    if not pieces_pos:
        return zero_measure()
    return canonicalize_loop(
        AtomicSignedMeasure(np.concatenate(pieces_pos), np.concatenate(pieces_w))
    )


def compress_to_cap_loop(mu, delta, cap):
    """The one-fiber ``compress_to_cap`` that became a one-cell call of
    ``measures.compress_to_cap_segments``: ``compress_loop``, doubling
    the width while more than ``cap`` atoms remain."""
    out = compress_loop(mu, delta)
    used = delta
    while out.n_atoms > cap:
        used *= 2.0
        out = compress_loop(out, used)
    return out, used


def from_dict_per_cell(d):
    """The per-cell reader the flat ``DisintegratedMeasure.from_dict``
    replaced: one ``AtomicSignedMeasure.from_pairs`` per fiber.  Reads
    restriction files only; a file without ``"normalized": false`` (its
    fibers of unit mass) is refused."""
    if d.get("normalized", True) is not False:
        raise ValueError("unit-mass fiber files are not read")
    return ek.DisintegratedMeasure.from_fibers(
        x=np.asarray(d["x"], dtype=float), ref_masses=np.asarray(d["ref_masses"], dtype=float),
        phi1=np.asarray(d["phi1"], dtype=float),
        fibers=[AtomicSignedMeasure.from_pairs(p) for p in d["fibers"]],
        reference=d["reference"], zeta=d["zeta"],
    )


def product_measure_per_cell(base_density, fiber, *, rpf, reference="m", zeta=1.0):
    """The ``product_measure`` that tiling the fiber's atoms replaced: one
    ``float(dens[j]) * fiber`` per cell, through ``from_fibers``."""
    if abs(fiber.total_mass() - 1.0) > 1e-10:
        raise ValueError("product_measure expects a probability fiber")
    dens = np.asarray(base_density, dtype=float)
    if dens.ndim == 0:
        dens = np.full(rpf.n, float(dens))
    ref = rpf.nu if reference == "nu" else rpf.m
    return ek.DisintegratedMeasure.from_fibers(
        x=rpf.x, ref_masses=ref.copy(), phi1=dens,
        fibers=[float(d) * fiber for d in dens], reference=reference, zeta=zeta,
    )


def branch_table_loop(branches):
    """The branch lookup table ``baserpf._branch_table`` builds, by the scan
    it replaced: for every gap between claim edges, the first claim in
    tuple order that covers it, else the last branch."""
    last = len(branches) - 1
    claims = [(b.lo, b.hi) for b in branches[:last]]
    edges = np.array(sorted({float(e) for c in claims for e in c}))
    pick = np.full(edges.size + 1, last, dtype=np.intp)
    for g in range(1, edges.size):
        lo, hi = edges[g - 1], edges[g]
        pick[g] = next((i for i, (a, b) in enumerate(claims) if a <= lo and hi <= b), last)
    return edges, pick


def integrate_loop(dm, g):
    """The per-cell ``integrate`` that one array call of the observable
    replaced: g(x_j, .) on the atoms of each cell of positive reference
    mass, one ``np.dot`` per cell, the cells added in order."""
    fn = g.fn if isinstance(g, ek.Observable) else g
    off = dm.offsets.tolist()
    total = 0.0
    for j in range(dm.n):
        rmj = float(dm.ref_masses[j])
        a, b = off[j], off[j + 1]
        if rmj == 0.0 or a == b:
            continue
        gv = np.asarray(fn(float(dm.x[j]), dm.positions[a:b]), dtype=float)
        total += rmj * float(np.dot(dm.weights[a:b], gv))
    return total


def multiply_observable_loop(dm, s):
    """The per-cell ``multiply_observable`` that one array call of the
    observable replaced: the atoms of cell j reweighted by s(x_j, .), and
    phi1[j] their new mass, one ``np.dot`` per cell."""
    fn = s.fn if isinstance(s, ek.Observable) else s
    new_phi1 = np.zeros(dm.n)
    sv = np.ones(dm.positions.size)
    off = dm.offsets.tolist()
    for j in range(dm.n):
        a, b = off[j], off[j + 1]
        if a == b:
            continue
        sv[a:b] = fn(float(dm.x[j]), dm.positions[a:b])
        new_phi1[j] = float(np.dot(dm.weights[a:b], sv[a:b]))
    return dm._reweighted(sv, phi1=new_phi1)


def holder_rows_all_pairs(x, v, zeta, block=2**18):
    """The all-pairs Holder quotient the pruned ``baserpf._holder_rows``
    replaced: every pair i < j of the sorted, de-tied points, in row blocks
    of at most ``block`` entries.  Oracle for finite rows only (a non-finite
    value gives a meaningless number here)."""
    x = np.asarray(x, dtype=float)
    best = np.zeros(v.shape[0])
    if x.size < 2:
        return best
    order = np.argsort(x, kind="stable")
    x = x[order]
    v = v[:, order]
    tied = np.diff(x) == 0.0
    clash = np.any(v[:, 1:][:, tied] != v[:, :-1][:, tied], axis=1)
    keep = np.concatenate(([True], ~tied))
    x, v = x[keep], v[:, keep]
    n = x.size
    if n >= 2 and zeta == 1.0:
        best = np.max(np.abs(np.diff(v, axis=1)) / np.diff(x), axis=1)
    elif n >= 2:
        rows = max(1, block // (n * v.shape[0]))
        for i0 in range(0, n - 1, rows):
            i1 = min(i0 + rows, n - 1)
            # rows i0..i1-1 against columns i0+1..n-1; entries with j <= i are masked
            dx = x[None, i0 + 1:] - x[i0:i1, None]
            dx[dx <= 0.0] = np.inf
            dv = np.abs(v[:, None, i0 + 1:] - v[:, i0:i1, None])
            top = np.max(dv / dx**zeta, axis=(1, 2))
            best = np.where(top > best, top, best)  # as max(best, top): NaN skipped
    best[clash] = np.inf
    return best


def matching_costs_loop(x, z):
    """The level DP ``dualnorm._matching_costs`` replaced, one numpy call
    per odd offset of each interval length."""
    nl, m = x.shape
    cl = [np.zeros((nl, m + 1))] + [None] * m
    arc = [None] * m
    tmp = np.empty((nl, m))
    for length in range(2, m + 1, 2):
        o = length - 1
        arc[o] = np.minimum((x[:, o:] - x[:, :-o]) ** z, 1.0) + cl[o - 1][:, 1 : m - o + 1]
        na = m - length + 1
        best = arc[1][:, :na] + cl[length - 2][:, 2 : 2 + na]
        t = tmp[:, :na]
        for o in range(3, length, 2):
            np.add(arc[o][:, :na], cl[length - 1 - o][:, o + 1 : o + 1 + na], out=t)
            np.minimum(best, t, out=best)
        cl[length] = best
    return cl[m][:, 0]


@pytest.fixture(scope="session")
def doubling_system():
    return ek.gallery_entry("doubling-linear").build()


@pytest.fixture(scope="session")
def doubling_rpf64(doubling_system):
    return ek.build_rpf(doubling_system.base, doubling_system.potential, 64)


@pytest.fixture(scope="session")
def tsujii_system():
    return ek.gallery_entry("tsujii").build()


@pytest.fixture(scope="session")
def tsujii_rpf128(tsujii_system):
    return ek.build_rpf(tsujii_system.base, tsujii_system.potential, 128)


@pytest.fixture(scope="session")
def tsujii_equilibrium128(tsujii_system, tsujii_rpf128):
    dm0 = ek.product_measure(1.0, ek.dirac(1.0), rpf=tsujii_rpf128, reference="m", zeta=1.0)
    mu, report = ek.iterate_to_equilibrium(
        tsujii_system, tsujii_rpf128, dm0, tol=1e-11, max_iter=90
    )
    assert report.converged
    return mu, report


@pytest.fixture(scope="session")
def tsujii_rpf512(tsujii_system):
    return ek.build_rpf(tsujii_system.base, tsujii_system.potential, 512)


@pytest.fixture(scope="session")
def tsujii_equilibrium512(tsujii_system, tsujii_rpf512):
    dm0 = ek.product_measure(1.0, ek.dirac(1.0), rpf=tsujii_rpf512, reference="m", zeta=1.0)
    mu, report = ek.iterate_to_equilibrium(
        tsujii_system, tsujii_rpf512, dm0, tol=1e-10, max_iter=90
    )
    return mu, report
