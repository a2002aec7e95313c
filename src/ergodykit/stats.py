"""Decay of correlations, by operator iteration and by Birkhoff averages.

C_n(u, g) = |integral of (g o F^n) u d mu0  -  integral g d mu0 * integral
u d mu0|.  The operator route rewrites the first term as the integral of g
against the n-th image of u * mu0 under the normalized transfer operator,
so one measure iteration gives the whole column.  The Monte Carlo route
estimates the same quantity from long orbits and applies only when the
equilibrium state is physical, which the caller must assert.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .baserpf import RPFDiscretization
from .disint import (
    DisintegratedMeasure,
    Observable,
    _elementwise,
    integrate,
    multiply_observable,
    sinf_norm,
)
from .measures import seeded, uniforms
from .transfer import (
    DEFAULT_ATOM_CAP,
    DEFAULT_COMPRESS_DELTA,
    GapReport,
    SkewSystem,
    _log_fit,
    apply_F_phih_normalized,
    homogeneous_delta,
)

__all__ = [
    "CorrelationTable",
    "ExpFit",
    "correlation_operator",
    "correlation_birkhoff",
    "fit_exponential",
]


@dataclass
class CorrelationTable:
    """Correlation values C_n >= 0 with n strictly increasing."""

    ns: list[int]
    values: list[float]
    method: str  # "operator" | "birkhoff"
    stderr: Optional[list[float]] = None
    fit: Optional["ExpFit"] = None
    bound_prefactor: Optional[float] = None  # ||u mu0||_S * R * |g|_zeta
    bound_xi: Optional[float] = None

    def rows(self):
        se = self.stderr if self.stderr is not None else [float("nan")] * len(self.ns)
        return list(zip(self.ns, self.values, se))

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "ns": self.ns,
            "values": self.values,
        }
        if self.stderr is not None:
            d["stderr"] = self.stderr
        if self.fit is not None:
            d["fit"] = self.fit.to_dict()
        if self.bound_prefactor is not None:
            d["bound_prefactor"] = self.bound_prefactor
            d["bound_xi"] = self.bound_xi
        return d


@dataclass(frozen=True)
class ExpFit:
    prefactor: float
    rate: float
    r_squared: float
    flag: str = "ok"  # "ok" | "non-decaying" | "all-below-floor"

    def to_dict(self) -> dict:
        return asdict(self)


def fit_exponential(table: CorrelationTable, floor: float = 1e-12) -> ExpFit:
    """Least squares of log C_n over the entries above the floor.

    Needs at least 4 usable entries; if everything sits below the floor the
    fit degenerates to rate 0 with a flag instead of an error.  A rate at
    or above 1 is flagged non-decaying.
    """
    ns = np.asarray(table.ns, dtype=float)
    vs = np.asarray(table.values, dtype=float)
    mask = vs > floor
    if not mask.any():
        fit = ExpFit(0.0, 0.0, 0.0, "all-below-floor")
        table.fit = fit
        return fit
    if mask.sum() < 4:
        raise ValueError("need at least 4 entries above the floor to fit")
    slope, icept, r2 = _log_fit(ns[mask], vs[mask])
    rate = float(np.exp(slope))
    flag = "non-decaying" if rate >= 1.0 - 1e-9 else "ok"
    fit = ExpFit(float(np.exp(icept)), rate, float(r2), flag)
    table.fit = fit
    return fit


def correlation_operator(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    mu0: DisintegratedMeasure,
    u: Observable,
    g: Observable,
    N: int,
    gap: Optional[GapReport] = None,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> CorrelationTable:
    """C_n via the transfer operator applied to u * mu0.

    mu0 must be the computed equilibrium (m-referenced).  Builds u * mu0
    once, then iterates the normalized operator and integrates g at every
    step; C_0 is the plain covariance.  Like every iteration of the
    operator, it compresses at the width ``homogeneous_delta(compress_delta,
    atom_cap)`` fixed up front, so the steps share one bucket grid.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    delta = homogeneous_delta(compress_delta, atom_cap)
    i_u = integrate(mu0, u)
    i_g = integrate(mu0, g)
    kappa = multiply_observable(mu0, u)
    ns = [0]
    values = [abs(integrate(kappa, g) - i_g * i_u)]
    cur = kappa
    for n in range(1, N + 1):
        cur = apply_F_phih_normalized(sys, rpf, cur, delta, atom_cap)
        ns.append(n)
        values.append(abs(integrate(cur, g) - i_g * i_u))
    bound_pref = None
    bound_xi = None
    if gap is not None:
        bound_pref = sinf_norm(kappa) * gap.R * g.holder_bound
        bound_xi = gap.xi
    return CorrelationTable(
        ns=ns, values=values, method="operator",
        bound_prefactor=bound_pref, bound_xi=bound_xi,
    )


def correlation_birkhoff(
    sys: SkewSystem,
    u: Observable,
    g: Observable,
    N: int,
    orbits: int = 48,
    burn_in: int = 200,
    rng_seed: int = 0,
    samples_per_orbit: int = 2000,
    orbit_noise: float = 1e-9,
) -> CorrelationTable:
    """Monte Carlo C_n from time averages along simulated orbits.

    Valid when the equilibrium state is the physical measure (the caller
    asserts this by choosing the estimator).  Orbits start from uniform
    initial conditions; standard errors come from batch means over orbits.
    All orbits advance together, with one fiber-map call and one base-map
    call per time step on the arrays of orbit points.  The points of the
    sampled steps are kept as (time, orbit) arrays, and each observable is
    called once on them after the loop, so the fiber map and both
    observables must be elementwise in x and y (ValueError otherwise).

    Binary expanding bases shift mantissa bits out under float iteration
    and every orbit collapses onto the fixed point after ~53 steps, so the
    base state is jittered by uniform noise of size orbit_noise each step;
    the bias this adds is orders of magnitude below the Monte Carlo error.
    The noise of all steps is drawn in one call, after the initial points.
    Pass orbit_noise=0 to disable.  Arrays too big for numpy to address
    raise MemoryError before anything is drawn.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    # the batch-means standard error needs two orbits, and every row of the
    # orbit arrays must be written before it is read
    if orbits < 2:
        raise ValueError(f"orbits must be at least 2, got {orbits}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if samples_per_orbit < 1:
        raise ValueError(f"samples_per_orbit must be at least 1, got {samples_per_orbit}")
    total = burn_in + samples_per_orbit + N
    # the largest array below, sized first: numpy refuses it with a ValueError
    rows = total if orbit_noise else samples_per_orbit + N
    if rows * orbits * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{rows} x {orbits} floats are more than numpy can address")
    rng = seeded(rng_seed)
    x = uniforms(rng, orbits)
    y = uniforms(rng, orbits)
    if orbit_noise:
        noise = uniforms(rng, (total, orbits))
        noise *= 2 * orbit_noise
        noise -= orbit_noise  # uniform in [-orbit_noise, orbit_noise)
    xs = np.empty((samples_per_orbit + N, orbits))
    ys = np.empty((samples_per_orbit + N, orbits))
    for t in range(total):
        if t >= burn_in:
            xs[t - burn_in] = x
            ys[t - burn_in] = y
        y_new = _elementwise(sys.fiber, x, y)
        x = sys.base.apply(x)
        if orbit_noise:
            x = np.mod(x + noise[t], 1.0)
        y = y_new
    u_traj = _elementwise(u, xs, ys)
    g_traj = _elementwise(g, xs, ys)
    t_use = samples_per_orbit
    mu_u = u_traj[:t_use].mean(axis=0)
    mu_g = g_traj[:t_use].mean(axis=0)
    ns = list(range(0, N + 1))
    values = []
    stderr = []
    for n in ns:
        per_orbit = (u_traj[:t_use] * g_traj[n:n + t_use]).mean(axis=0) - mu_u * mu_g
        est = float(per_orbit.mean())
        se = float(per_orbit.std(ddof=1) / np.sqrt(orbits))
        values.append(abs(est))
        stderr.append(se)
    return CorrelationTable(ns=ns, values=values, method="birkhoff", stderr=stderr)
