"""Disintegrated measures on Sigma = [0,1] x K and their norms.

A measure is stored as a marginal density over base cells (with respect to
either the conformal measure nu or the invariant measure m) together with
one atomic fiber measure per cell, attached at the cell midpoint.  The
fiber over cell j is the restriction mu|_gamma of the measure to that
leaf, positive and signed measures alike, and phi1[j] is its mass; a cell
that carries nothing holds the zero measure.

The four norms:
    L1   = sum_j nu_j * ||restriction_j||_o          (nu-referenced)
    Linf = max over m_j > 0 of ||restriction_j||_o   (m-referenced)
    S1   = |phi1|_zeta + L1,   Sinf = |phi1|_zeta + Linf,
with |phi1|_zeta the discrete Holder norm of the marginal density and
||.||_o the dual norm of the fiber module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .baserpf import RPFDiscretization, discrete_holder_constant
from .dualnorm import _as_zeta, chain_norms, norm_value, distance_value
from .measures import AtomicSignedMeasure, canonicalize

__all__ = [
    "DisintegratedMeasure",
    "Observable",
    "l1_norm",
    "linf_norm",
    "s1_norm",
    "sinf_norm",
    "holder_constant",
    "disintegration_holder",
    "multiply_observable",
    "integrate",
    "product_measure",
    "convert_reference",
    "linf_distance",
    "l1_distance",
]


@dataclass(frozen=True)
class DisintegratedMeasure:
    """Marginal density plus the fiber restriction over each base cell.

    ``fibers[j]`` is the restriction mu|_gamma over cell j, and phi1[j]
    is its mass (the operators compute the two separately, so they agree
    to roundoff).  The serialized form keeps a ``"normalized"`` key, always
    false; files with ``"normalized": true`` store unit-mass fibers and are
    scaled by phi1 on reading.
    """

    x: np.ndarray
    ref_masses: np.ndarray
    phi1: np.ndarray
    fibers: tuple[AtomicSignedMeasure, ...]
    reference: str  # "nu" | "m"
    zeta: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        rm = np.asarray(self.ref_masses, dtype=float)
        p1 = np.asarray(self.phi1, dtype=float)
        fibers = tuple(self.fibers)
        if not (x.size == rm.size == p1.size == len(fibers)):
            raise ValueError("x, ref_masses, phi1 and fibers must have equal length")
        if self.reference not in ("nu", "m"):
            raise ValueError(f"reference must be 'nu' or 'm', got {self.reference!r}")
        for arr in (x, rm, p1):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "ref_masses", rm)
        object.__setattr__(self, "phi1", p1)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "zeta", _as_zeta(self.zeta))

    @property
    def n(self) -> int:
        return int(self.x.size)

    def total_mass(self) -> float:
        return float(np.dot(self.ref_masses, self.phi1))

    def is_positive(self) -> bool:
        if np.any(self.phi1 < 0):
            return False
        return all(np.all(f.weights >= 0) for f in self.fibers)

    def scaled(self, c: float) -> "DisintegratedMeasure":
        return replace(
            self, phi1=c * self.phi1, fibers=tuple(c * f for f in self.fibers)
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "reference": self.reference,
            "zeta": self.zeta,
            "normalized": False,
            "x": self.x.tolist(),
            "ref_masses": self.ref_masses.tolist(),
            "phi1": self.phi1.tolist(),
            "fibers": [f.to_pairs() for f in self.fibers],
        }

    @staticmethod
    def from_dict(d: dict) -> "DisintegratedMeasure":
        phi1 = np.asarray(d["phi1"], dtype=float)
        fibers = [AtomicSignedMeasure.from_pairs(p) for p in d["fibers"]]
        if d.get("normalized", True):  # unit-mass fibers: scale to restrictions
            fibers = [float(p) * f for p, f in zip(phi1, fibers, strict=True)]
        return DisintegratedMeasure(
            x=np.asarray(d["x"], dtype=float),
            ref_masses=np.asarray(d["ref_masses"], dtype=float),
            phi1=phi1,
            fibers=tuple(fibers),
            reference=d["reference"],
            zeta=d.get("zeta", 1.0),
        )


@dataclass(frozen=True)
class Observable:
    """A function on Sigma with a declared zeta-Holder bound.

    ``holder_bound`` is |s|_zeta = H_zeta(s) + |s|_inf for the max metric
    on the product space; it must dominate every sampled quotient.  It is
    declared by whoever builds the observable (the constructors below give
    the exact value).
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    zeta: float = 1.0
    holder_bound: float = np.inf
    name: str = "observable"

    def __call__(self, x, y):
        return self.fn(x, y)

    @staticmethod
    def constant(c: float, zeta=1.0):
        return Observable(
            fn=lambda x, y, _c=float(c): np.full_like(np.asarray(y, dtype=float), _c),
            zeta=_as_zeta(zeta),
            holder_bound=abs(float(c)),
            name=f"const({c:g})",
        )

    @staticmethod
    def coord_y(zeta=1.0):
        return Observable(
            fn=lambda x, y: np.asarray(y, dtype=float),
            zeta=_as_zeta(zeta),
            holder_bound=2.0,
            name="y",
        )

    @staticmethod
    def coord_x(zeta=1.0):
        return Observable(
            fn=lambda x, y: np.full_like(np.asarray(y, dtype=float), float(x)),
            zeta=_as_zeta(zeta),
            holder_bound=2.0,
            name="x",
        )


def _fiber_eval(obs, x: float, mu: AtomicSignedMeasure) -> float:
    """Integral of obs(x, .) against an atomic fiber measure."""
    if mu.n_atoms == 0:
        return 0.0
    fn = obs.fn if isinstance(obs, Observable) else obs
    return float(np.dot(mu.weights, np.asarray(fn(x, mu.positions), dtype=float)))


def _fiber_norms(plus, minus, z: float) -> np.ndarray:
    """Dual norms of plus[k] - minus[k] (of plus[k] when minus is None).

    At zeta = 1 all of them come from one ``chain_norms`` call over the
    concatenated atoms; at zeta < 1 each is its own LP.
    """
    if z != 1.0:
        if minus is None:
            return np.array([norm_value(f, z) for f in plus])
        return np.array([distance_value(f, g, z) for f, g in zip(plus, minus)])
    fibers = list(plus) if minus is None else list(plus) + list(minus)
    k = len(plus)
    if not fibers:
        return np.zeros(0)
    counts = np.fromiter((f.n_atoms for f in fibers), dtype=np.intp, count=len(fibers))
    w = np.concatenate([f.weights for f in fibers])
    w[int(counts[:k].sum()):] *= -1.0
    return chain_norms(
        np.repeat(np.arange(len(fibers)) % k, counts),
        np.concatenate([f.positions for f in fibers]),
        w,
        k,
    )


def l1_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    """Integral of the fiber dual norms against nu (batched at zeta = 1)."""
    if dm.reference != "nu":
        raise ValueError("l1_norm needs a nu-referenced measure; convert first")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(dm.ref_masses > 0)
    vals = _fiber_norms([dm.fibers[j] for j in idx], None, z)
    return float(np.dot(dm.ref_masses[idx], vals))


def linf_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    """Largest fiber dual norm over cells of positive m-mass (batched at zeta = 1)."""
    if dm.reference != "m":
        raise ValueError("linf_norm needs an m-referenced measure; convert first")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(dm.ref_masses > 0)
    return float(_fiber_norms([dm.fibers[j] for j in idx], None, z).max(initial=0.0))


def holder_constant(values: Sequence[float], zeta=1.0, positions=None) -> float:
    """Discrete Holder constant max |v_i - v_j| / |x_i - x_j|**zeta of per-cell values.

    Positions default to the cell midpoints (i + 0.5) / n.  Evaluated by
    ``discrete_holder_constant``: at zeta = 1 neighbouring positions alone
    attain the maximum (exactly, by the mediant inequality on a line), at
    zeta < 1 all pairs are compared.  Coincident positions with different
    values give inf.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    if positions is None:
        positions = (np.arange(v.size) + 0.5) / v.size
    return discrete_holder_constant(np.asarray(positions, dtype=float), v, _as_zeta(zeta))


def _phi1_strong(dm: DisintegratedMeasure, z: float) -> float:
    return holder_constant(dm.phi1, z, dm.x) + float(np.max(np.abs(dm.phi1))) if dm.n else 0.0


def s1_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    return _phi1_strong(dm, z) + l1_norm(dm, z)


def sinf_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    return _phi1_strong(dm, z) + linf_norm(dm, z)


def disintegration_holder(dm: DisintegratedMeasure, zeta=None) -> float:
    """Holder constant of the disintegration path gamma -> mu|_gamma.

    Max over pairs of cells with positive reference mass of the fiber dual
    distance divided by the midpoint distance to the power zeta.  Defined
    for positive measures only.

    At zeta = 1 only cells adjacent in midpoint order are compared, which
    is exact: the dual distance obeys the triangle inequality and midpoint
    distances add along the line, so by the mediant inequality no pair
    beats the better of its two halves.  Those n - 1 distances are one
    batched ``chain_norms`` call.  At zeta < 1 all pairs are compared.
    """
    if not dm.is_positive():
        raise ValueError("disintegration Holder constant is defined for positive measures")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(dm.ref_masses > 0)
    if z == 1.0:
        idx = idx[np.argsort(dm.x[idx], kind="stable")]
        dist = _fiber_norms(
            [dm.fibers[i] for i in idx[:-1]], [dm.fibers[j] for j in idx[1:]], z
        )
        return float((dist / np.diff(dm.x[idx])).max(initial=0.0))
    best = 0.0
    for a in range(len(idx)):
        i = idx[a]
        for b in range(a + 1, len(idx)):
            j = idx[b]
            d = distance_value(dm.fibers[i], dm.fibers[j], z)
            best = max(best, d / abs(dm.x[i] - dm.x[j]) ** z)
    return best


def multiply_observable(dm: DisintegratedMeasure, s) -> DisintegratedMeasure:
    """The signed measure s * mu.

    Each restriction has its atoms reweighted by s(x_j, .), and the new
    marginal phi1[j] is the mass of the reweighted restriction.
    """
    fn = s.fn if isinstance(s, Observable) else s
    new_phi1 = np.zeros(dm.n)
    new_fibers: list[AtomicSignedMeasure] = []
    for j, fib in enumerate(dm.fibers):
        if fib.n_atoms == 0:
            new_fibers.append(fib)
            continue
        sv = np.asarray(fn(float(dm.x[j]), fib.positions), dtype=float)
        new_phi1[j] = float(np.dot(fib.weights, sv))
        new_fibers.append(canonicalize(AtomicSignedMeasure(fib.positions, fib.weights * sv)))
    return replace(dm, phi1=new_phi1, fibers=tuple(new_fibers))


def integrate(dm: DisintegratedMeasure, g) -> float:
    """Integral of an observable: sum_j ref_j * <restriction_j, g(x_j, .)>."""
    total = 0.0
    for j in range(dm.n):
        rmj = float(dm.ref_masses[j])
        if rmj == 0.0:
            continue
        total += rmj * _fiber_eval(g, float(dm.x[j]), dm.fibers[j])
    return total


def product_measure(
    base_density,
    fiber: AtomicSignedMeasure,
    *,
    rpf: RPFDiscretization,
    reference: str = "m",
    zeta=1.0,
) -> DisintegratedMeasure:
    """Constant-path disintegration: dens[j] times the same probability
    fiber over every cell."""
    if abs(fiber.total_mass() - 1.0) > 1e-10:
        raise ValueError("product_measure expects a probability fiber")
    dens = np.asarray(base_density, dtype=float)
    if dens.ndim == 0:
        dens = np.full(rpf.n, float(dens))
    ref = rpf.nu if reference == "nu" else rpf.m
    return DisintegratedMeasure(
        x=rpf.x,
        ref_masses=ref.copy(),
        phi1=dens,
        fibers=tuple(float(d) * fiber for d in dens),
        reference=reference,
        zeta=zeta,
    )


def convert_reference(
    dm: DisintegratedMeasure, rpf: RPFDiscretization, to: str
) -> DisintegratedMeasure:
    """Re-express the marginal density with respect to the other reference.

    The underlying measure is unchanged; densities and restrictions
    divide or multiply by the eigenfunction h (m = h nu).
    """
    if to not in ("nu", "m"):
        raise ValueError("target reference must be 'nu' or 'm'")
    if dm.reference == to:
        return dm
    factor = 1.0 / rpf.h if to == "m" else rpf.h
    ref = rpf.nu if to == "nu" else rpf.m
    fibers = tuple(float(c) * f for c, f in zip(factor, dm.fibers))
    return replace(
        dm, phi1=dm.phi1 * factor, fibers=fibers, ref_masses=ref.copy(), reference=to
    )


def _fiber_distances(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta):
    """Cells of positive reference mass and the fiber dual distances there."""
    if a.n != b.n or a.reference != b.reference:
        raise ValueError(
            f"measures differ: {a.n} cells, {a.reference}-referenced against "
            f"{b.n} cells, {b.reference}-referenced"
        )
    z = a.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(a.ref_masses > 0)
    return idx, _fiber_norms([a.fibers[j] for j in idx], [b.fibers[j] for j in idx], z)


def linf_distance(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta=None) -> float:
    """m-essential sup of the fiber dual distances between two measures.

    At zeta = 1 every cell's distance comes from one batched
    ``chain_norms`` call.  Measures on different grids or references raise
    ValueError.
    """
    return float(_fiber_distances(a, b, zeta)[1].max(initial=0.0))


def l1_distance(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta=None) -> float:
    """nu-average of the fiber dual distances between two measures
    (batched at zeta = 1, like ``linf_distance``)."""
    idx, dist = _fiber_distances(a, b, zeta)
    return float(np.dot(a.ref_masses[idx], dist))
