"""Skew-product transfer operators and the equilibrium-state pipeline.

The skew product F(x, y) = (f(x), G(x, y)) acts on disintegrated measures
through two operators built on the base RPF discretization:

* the plain operator on nu-referenced measures, whose marginal action is
  the raw transfer operator and whose fibers are branch-weighted pushforward
  sums with weights exp(phi(y_i));
* the normalized h-twisted operator on m-referenced measures, whose branch
  weights h(y_i) exp(phi(y_i)) / (lambda h(x)) are row-normalized exactly,
  so probabilities stay probabilities to machine precision.

Iterating the normalized operator from any probability converges to the
equilibrium state geometrically; the module measures the rate, estimates
the spectral gap on zero-average measures, and carries the regularity
bookkeeping for the disintegration Holder constant.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .baserpf import (
    BaseMap,
    Potential,
    RPFDiscretization,
    _envelope_fit,
    _holder_rows,
    check_hypotheses,
    spectral_radius_on_kernel,
    twisted_operator,
)
from .disint import (
    DisintegratedMeasure,
    Observable,
    _cell_atoms,
    _elementwise,
    _largest,
    _norm_bounds,
    _offsets,
    _sinf_norms,
    linf_distance,
    l1_norm,
    s1_norm,
)
from .dualnorm import _as_zeta
from .measures import (
    _RANGE_SLACK,
    MeasureDomainError,
    canonicalize_segments,
    compress_to_cap_segments,
    seeded,
    uniforms,
)

# Nothing here calls the one-fiber compression or the one-measure Sinf norm
# any more; the benchmark's tracer wraps ``transfer.compress_to_cap`` and
# ``transfer.sinf_norm`` by name, so the names stay bound.
from .disint import sinf_norm  # noqa: F401
from .measures import compress_to_cap  # noqa: F401

__all__ = [
    "FiberMap",
    "SkewSystem",
    "ConvergenceReport",
    "GapReport",
    "RegularityBound",
    "apply_F_phi",
    "apply_F_phih_normalized",
    "iterate_to_equilibrium",
    "convergence_constants",
    "estimate_spectral_gap",
    "check_class_S",
    "reduce_potential",
    "verify_LY_S1",
    "regularity_constants",
]

DEFAULT_COMPRESS_DELTA = 1e-4
DEFAULT_ATOM_CAP = 64


@dataclass(frozen=True)
class FiberMap:
    """Fiber dynamics G(x, .): K -> K with declared contraction data.

    ``fn(x, y)`` must be elementwise in x and y, over broadcastable
    arrays: the operator step calls it once on the paired (preimage,
    atom) arrays of every cell (of every trial at once in the
    spectral-gap estimate), Birkhoff orbits once per time step on the
    arrays of all orbit points, and the sampled checks once on all their
    samples.  A result of another shape raises ValueError.
    ``alpha`` bounds the fiber contraction
    |G(x, z1) - G(x, z2)| <= alpha |z1 - z2| and ``g_holder`` the
    per-branch x-Holder constant
    sup_y |G(x1, y) - G(x2, y)| / d(x1,x2)**zeta.
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    alpha: float
    g_holder: float = 0.0
    name: str = "fiber"

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError(f"contraction factor must lie in [0, 1), got {self.alpha}")

    def __call__(self, x, y: np.ndarray) -> np.ndarray:
        return self.fn(x, y)


@dataclass(frozen=True)
class SkewSystem:
    """Base map, fiber map, potential and the Holder exponent in force."""

    base: BaseMap
    fiber: FiberMap
    potential: Potential
    zeta: float = 1.0
    name: str = "skew"

    def __post_init__(self):
        object.__setattr__(self, "zeta", _as_zeta(self.zeta))

    @property
    def alpha(self) -> float:
        return self.fiber.alpha

    @property
    def alpha_zeta(self) -> float:
        return self.alpha**self.zeta

    @property
    def regularity_precondition(self) -> float:
        """(alpha * L)**zeta with L the global inverse-Lipschitz bound."""
        return (self.alpha * self.base.lip_max) ** self.zeta

    def sampled_invariants(self, samples: int = 200, seed: int = 0) -> dict:
        """Spot-check the declared contraction and fiber-Holder bounds,
        with one fiber-map call for all contraction pairs and one per
        branch for the Holder grid."""
        rng = seeded(seed)
        u = uniforms(rng, (samples, 3))  # x, then two fiber points
        d = np.abs(u[:, 2] - u[:, 1])
        gz = _elementwise(self.fiber, u[:, :1], u[:, 1:])
        keep = d >= 1e-12
        worst_contract = float(
            (np.abs(gz[:, 1] - gz[:, 0])[keep] / d[keep]).max(initial=0.0)
        )
        worst_holder = 0.0
        for b in self.base.branches:
            xs = b.lo + (b.hi - b.lo) * uniforms(rng, samples)
            ys = uniforms(rng, 8)
            vals = _elementwise(self.fiber, xs[:, None], ys)
            dx = np.abs(np.diff(xs))
            keep = dx >= 1e-9
            q = np.abs(np.diff(vals, axis=0)).max(axis=1)[keep] / dx[keep] ** self.zeta
            worst_holder = max(worst_holder, float(q.max(initial=0.0)))
        return {
            "contraction_quotient": worst_contract,
            "alpha": self.alpha,
            "contraction_ok": worst_contract <= self.alpha + 1e-9,
            "fiber_holder_quotient": worst_holder,
            "g_holder": self.fiber.g_holder,
            "fiber_holder_ok": worst_holder <= self.fiber.g_holder + 1e-9,
            "alpha_l_zeta": self.regularity_precondition,
        }


def _step(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    dm: DisintegratedMeasure,
    branch_weights: np.ndarray,
    ref_masses: np.ndarray,
    delta: float,
    cap: int,
) -> tuple[DisintegratedMeasure, np.ndarray]:
    """One operator step on every cell at once, and the widths it used.

    The output restriction over cell j is the branch-weighted sum of the
    pushforwards of the source restrictions through G(y_ij, .).  The
    source restriction at a preimage is read by the two-cell linear
    stencil of the base operator, and both stencil cells share the fiber map
    G(y_ij, .).  The atoms of every (cell, branch, stencil side) piece
    are gathered in that order, pushed forward by one fiber-map call,
    canonicalized and compressed to the cap cell by cell.  The second
    result holds each cell's last compression width.
    """
    n, deg = rpf.n, rpf.deg
    bw = np.moveaxis(branch_weights, 1, 0).reshape(-1)  # (j, i, s) order
    src = np.moveaxis(rpf.src, 1, 0).reshape(-1)
    pieces = np.flatnonzero(bw != 0.0)
    idx, counts = _cell_atoms(dm.offsets, src[pieces])
    piece_of = np.repeat(pieces, counts)
    cell = piece_of // (2 * deg)
    x = rpf.preimages.T.reshape(-1)[piece_of // 2]
    y = dm.positions[idx]
    w = np.repeat(bw[pieces], counts) * dm.weights[idx]
    img = _elementwise(sys.fiber, x, y) if y.size else y
    outside = (img < -_RANGE_SLACK) | (img > 1.0 + _RANGE_SLACK)
    if outside.any():
        k = int(np.argmax(outside))
        raise MeasureDomainError(
            f"fiber image {img[k]!r} of atom {y[k]!r} over x = {x[k]!r} outside [0, 1]"
        )
    if not (np.all(np.isfinite(img)) and np.all(np.isfinite(w))):
        raise ValueError("fiber images and weights must be finite")
    cell, pos, w = canonicalize_segments(cell, np.clip(img, 0.0, 1.0), w)
    cell, pos, w, widths = compress_to_cap_segments(cell, pos, w, n, delta, cap)
    return dm.with_atoms(cell, pos, w, ref_masses=ref_masses.copy()), widths


def apply_F_phi(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    dm: DisintegratedMeasure,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> DisintegratedMeasure:
    """The unnormalized operator on nu-referenced measures.

    The output restriction over cell j is the sum over branches of
    exp(phi(y_ij)) times the pushforward of the source restriction through
    G(y_ij, .); the output marginal is the transfer operator applied to the
    input marginal.  The equilibrium state is an eigenvector with
    eigenvalue lambda.  Raises ValueError for an atom cap below 2.
    """
    if dm.reference != "nu":
        raise ValueError("apply_F_phi acts on nu-referenced measures")
    if rpf.kind != "plain":
        raise ValueError("apply_F_phi needs the plain (untwisted) discretization")
    if dm.n != rpf.n:
        raise ValueError("measure and discretization sizes differ")
    return _step(sys, rpf, dm, rpf.wphi, rpf.nu, compress_delta, atom_cap)[0]


def apply_F_phih_normalized(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    dm: DisintegratedMeasure,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
    *,
    widths: list | None = None,
) -> DisintegratedMeasure:
    """The normalized h-twisted operator on m-referenced measures.

    Branch weights h(y_ij) exp(phi(y_ij)) / (lambda h(x_j)), row-normalized
    exactly, so a probability maps to a probability and total mass is
    conserved to machine precision.  When ``widths`` is a list, the array
    of per-cell compression widths this step used is appended to it.
    Raises ValueError for an atom cap below 2.
    """
    if dm.reference != "m":
        raise ValueError("apply_F_phih_normalized acts on m-referenced measures")
    if dm.n != rpf.n:
        raise ValueError("measure and discretization sizes differ")
    out, used = _step(sys, rpf, dm, rpf.weights, rpf.m, compress_delta, atom_cap)
    if widths is not None:
        widths.append(used)
    return out


@dataclass
class ConvergenceReport:
    """Per-iteration distances of the equilibrium iteration and rate data."""

    distances: list[float]
    converged: bool
    iterations: int
    tol: float
    fitted_rate: float
    fit_r2: float
    alpha_zeta: float
    compress_delta: float
    atom_cap: int
    compress_error_bound: float
    realized_delta_max: float

    def to_dict(self) -> dict:
        return asdict(self)


def _fit_geometric(values: list[float], floor: float = 1e-14):
    """Least-squares geometric rate on the tail half of a positive series.

    Points sitting on the terminal plateau (within 20x of the final level,
    where the iteration has hit its fixed point or the tolerance) are
    excluded so the fit sees the geometric phase only.  An empty series
    has no fit: (0.0, 0.0).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0, 0.0
    cut = max(floor, 20.0 * float(v.min()))
    usable = np.nonzero(v > cut)[0]
    if usable.size < 3:
        usable = np.nonzero(v > floor)[0]
    if usable.size < 3:
        return 0.0, 0.0
    tail = usable[usable.size // 2:]
    if tail.size < 2:
        tail = usable
    slope, _, r2 = _log_fit(tail.astype(float), v[tail])
    return float(np.exp(slope)), r2


def _log_fit(x: np.ndarray, v: np.ndarray):
    """Least squares of log v against x: (slope, intercept, r2), with
    r2 = 1 when log v is constant."""
    y = np.log(v)
    slope, icept = np.polyfit(x, y, 1)
    pred = slope * x + icept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return slope, icept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def homogeneous_delta(compress_delta: float, atom_cap: int) -> float:
    """The compression width actually realized under iteration.

    With fiber supports filling K, the atom cap forces buckets of width
    about 1/cap anyway; fixing that width up front keeps the iterated
    operator time-homogeneous (the same bucket grid every step), so the
    iteration converges to a genuine fixed point instead of churning
    between cluster layouts.
    """
    return max(compress_delta, 1.0 / max(atom_cap - 1, 1))


def compression_drift_bound(delta: float, realized: float, zeta: float) -> float:
    """Dual-norm drift of one compression per unit total variation.

    A cell compressed at width delta and doubled until width ``realized``
    moves each atom at most once per width tried, so its drift is at
    most the sum of width**zeta over delta, 2 delta, ..., realized; that
    is delta**zeta when nothing doubles.
    """
    width = delta
    total = delta**zeta
    while width < realized:
        width *= 2.0
        total += width**zeta
    return total


def _below_tol(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta: float,
               tol: float) -> bool:
    """``linf_distance(a, b, zeta) < tol``, from lower bounds where they decide.

    A tol <= 0 is never reached, and a cell's lower bound (``_norm_bounds``
    of the differences: at zeta = 1 the closed form without its level sum,
    below it the zeta = 1 distance) at or above tol shows the distance is
    not below it; otherwise the largest exact distance decides, found by
    ``_largest`` from the same sorted atoms.
    """
    if tol <= 0:
        return False
    idx = np.flatnonzero(a.ref_masses > 0)
    bounds = _norm_bounds(zeta, a, idx, b)
    if np.any(bounds[0] >= tol):
        return False
    return bool(_largest(bounds)[0] < tol)


def iterate_to_equilibrium(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    dm0: DisintegratedMeasure,
    tol: float = 1e-8,
    max_iter: int = 200,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
    *,
    distances: bool = True,
) -> tuple[DisintegratedMeasure, ConvergenceReport]:
    """Iterate the normalized operator until successive iterates stall.

    Stops when the sup fiber distance between successive iterates
    (``linf_distance``) drops below tol, or after max_iter >= 1 steps
    (reported as converged=False, not an exception).  The iterates can
    reach an exact floating-point fixed point (distance 0), so only
    tol <= 0 guarantees max_iter steps.  The fitted geometric rate comes
    from the tail half of the distance sequence; ``convergence_constants``
    gives the theoretical one.  The report gives the largest compression
    width any cell reached (``realized_delta_max``) and the drift bound of
    that cell's widths (``compress_error_bound``).  ``dm0`` must be a
    probability: its restrictions of total mass 1 within 1e-8.

    ``distances=False`` is for callers that read only the stop decision.
    Each step then decides it without the exact distances where it can: a
    tol <= 0 is never reached, and a cell whose lower bound
    (``_norm_bounds``: the closed form without its level sum at zeta = 1,
    the zeta = 1 distance below) is at least tol shows that the iteration
    goes on; only when no cell shows it are the exact distances computed.
    The steps, the stop and the final measure are those of
    ``distances=True``, but the report's ``distances`` is empty and its
    ``fitted_rate`` and ``fit_r2`` are 0.0.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    mass = dm0.total_mass()
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"iterate_to_equilibrium expects a probability measure, not mass {mass}")
    delta = homogeneous_delta(compress_delta, atom_cap)
    cur = dm0
    dists: list[float] = []
    converged = False
    realized = delta
    iterations = 0
    while iterations < max_iter and not converged:
        widths: list[np.ndarray] = []
        nxt = apply_F_phih_normalized(sys, rpf, cur, delta, atom_cap, widths=widths)
        realized = max(realized, float(widths[0].max(initial=delta)))
        iterations += 1
        if distances:
            dists.append(linf_distance(nxt, cur, sys.zeta))
            converged = bool(dists[-1] < tol)
        else:
            converged = _below_tol(nxt, cur, sys.zeta, tol)
        cur = nxt
    rate, r2 = _fit_geometric(dists)
    report = ConvergenceReport(
        distances=dists,
        converged=converged,
        iterations=iterations,
        tol=tol,
        fitted_rate=rate,
        fit_r2=r2,
        alpha_zeta=sys.alpha_zeta,
        compress_delta=delta,
        atom_cap=atom_cap,
        compress_error_bound=compression_drift_bound(delta, realized, sys.zeta),
        realized_delta_max=realized,
    )
    return cur, report


def convergence_constants(sys: SkewSystem, rpf: RPFDiscretization) -> dict:
    """Theoretical rate data of the equilibrium iteration on ``rpf``.

    Measures the kernel decay r_hat (with prefactor D_hat) of the twisted
    base operator at the system's zeta, and returns ``r_hat``, the rate
    ``beta3`` = max(sqrt(r_hat), sqrt(alpha**zeta)) and the constants
    ``D3`` = a + D_hat / sqrt(r_hat) / (1 - alpha**zeta) and
    ``D4`` = a + D_hat / sqrt(r_hat) (1 + alpha**zeta) / (1 - alpha**zeta),
    with a = alpha**(-zeta / 2).  The decay is a measurement in the
    zeta-Holder strong norm, so it depends on zeta, and nothing is cached
    on the discretization.
    """
    decay = spectral_radius_on_kernel(twisted_operator(rpf), sys.zeta)
    r_hat = decay.r_hat
    az = sys.alpha_zeta
    beta3 = max(np.sqrt(r_hat), np.sqrt(az)) if max(r_hat, az) > 0 else 0.0
    alpha_bar1 = 1.0 / (1.0 - az) if az < 1 else np.inf
    alpha_bar2 = (1.0 + az) / (1.0 - az) if az < 1 else np.inf
    d_term = decay.D_hat / np.sqrt(r_hat) if r_hat > 0 else 0.0
    a_term = 1.0 / np.sqrt(az) if az > 0 else 1.0
    return {
        "r_hat": r_hat,
        "beta3": float(beta3),
        "D3": float(a_term + alpha_bar1 * d_term),
        "D4": float(a_term + alpha_bar2 * d_term),
    }


@dataclass
class GapReport:
    """Fitted decay of strong norms on zero-average measures."""

    xi: float
    R: float
    trials: int
    n_steps: int
    per_trial_rates: list[float]
    realized_delta_max: float

    def to_dict(self) -> dict:
        return asdict(self)


def _random_zero_average(
    rpf: RPFDiscretization, zeta: float, rng: random.Random
) -> DisintegratedMeasure:
    """A random signed measure whose marginal density is m-zero-average.

    Restrictions combine a mass-carrying atom with a zero-mass dipole so
    both the marginal and the pure-fiber directions get exercised.  The
    density is two cosines, each with a frequency in 1-3 (both drawn
    first), then a standard-normal amplitude and a uniform phase.  Cell
    by cell the generator then draws the atom's position (only where the
    density is non-zero), the dipole weight in [0.2, 1) and the dipole's
    two positions; one ``uniforms`` call draws them all in that order.  A
    dipole whose two positions coincide is the zero measure.
    """
    n = rpf.n
    freqs = [rng.randrange(1, 4) for _ in range(2)]
    phi1 = sum(
        rng.gauss(0.0, 1.0) * np.cos(np.pi * f * rpf.x + rng.uniform(0.0, 2 * np.pi))
        for f in freqs
    )
    phi1 = np.asarray(phi1, dtype=float)
    phi1 -= float(np.dot(rpf.m, phi1))  # project off the fixed direction
    drawn = np.ones((n, 4), dtype=bool)
    drawn[:, 0] = phi1 != 0
    low = np.broadcast_to(np.where(np.arange(4) == 1, 0.2, 0.0), (n, 4))[drawn]
    u = np.zeros((n, 4))
    u[drawn] = low + (1.0 - low) * uniforms(rng, low.size)
    w, a, b = u[:, 1], u[:, 2], u[:, 3]
    dipole = a != b
    cell = np.concatenate([np.flatnonzero(drawn[:, 0]), np.tile(np.flatnonzero(dipole), 2)])
    pos = np.concatenate([u[drawn[:, 0], 0], a[dipole], b[dipole]])
    wts = np.concatenate([phi1[drawn[:, 0]], w[dipole], -w[dipole]])
    return DisintegratedMeasure.from_atoms(rpf.x, rpf.m.copy(), cell, pos, wts, "m", zeta)


def _side_by_side(rpf: RPFDiscretization, k: int) -> RPFDiscretization:
    """k copies of the discretization as one block-diagonal operator.

    Copy t owns cells t n .. (t + 1) n - 1 and reads only them (``src``
    offset by t n), so a measure made of k measures side by side steps as
    each of them would alone.
    """
    n = rpf.n
    return replace(
        rpf,
        n=k * n,
        x=np.tile(rpf.x, k),
        h=np.tile(rpf.h, k),
        nu=np.tile(rpf.nu, k),
        m=np.tile(rpf.m, k),
        preimages=np.tile(rpf.preimages, (1, k)),
        src=(rpf.src[:, None] + n * np.arange(k)[:, None, None]).reshape(rpf.deg, k * n, 2),
        wphi=np.tile(rpf.wphi, (1, k, 1)),
        weights=np.tile(rpf.weights, (1, k, 1)),
    )


def _stack(dms: list[DisintegratedMeasure], rpf: RPFDiscretization) -> DisintegratedMeasure:
    """The m-referenced measures ``dms`` side by side on ``rpf``'s cells."""
    n = dms[0].n
    cell = np.concatenate([dm.atom_cells + t * n for t, dm in enumerate(dms)])
    return DisintegratedMeasure(
        x=rpf.x,
        ref_masses=rpf.m.copy(),
        offsets=_offsets(cell, rpf.n),
        positions=np.concatenate([dm.positions for dm in dms]),
        weights=np.concatenate([dm.weights for dm in dms]),
        reference="m",
        zeta=dms[0].zeta,
    )


def estimate_spectral_gap(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    trials: int = 8,
    n_steps: int = 15,
    seed: int = 0,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> GapReport:
    """Fit the decay rate of S-infinity norms on zero-average measures.

    Every trial draws a random zero-average measure (``_random_zero_average``,
    trial after trial from one generator), and the fitted rate of its
    Sinf norms over ``n_steps`` steps of the normalized operator is one
    entry of ``per_trial_rates``; xi is the largest rate, and R the
    smallest prefactor, at least 1, for which ||mu_k|| <= R xi**k ||mu_0||
    holds on every trial and step (1 when xi is 0).  A trial whose
    starting norm is below 1e-12 is skipped.
    The trials advance together, side by side on a block-diagonal copy of
    the discretization: one operator call and one batch of Sinf norms per
    step, each trial's numbers being the ones it has alone.
    ``realized_delta_max`` is the largest compression width any step used.
    """
    if trials < 5:
        raise ValueError("need at least 5 trials")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = seeded(seed)
    delta = homogeneous_delta(compress_delta, atom_cap)
    big = _side_by_side(rpf, trials)
    cur = _stack([_random_zero_average(rpf, sys.zeta, rng) for _ in range(trials)], big)
    s0 = _sinf_norms(cur, trials)
    live = s0 >= 1e-12
    norms = np.empty((n_steps, trials))
    realized = delta
    for k in range(n_steps):
        widths: list[np.ndarray] = []
        cur = apply_F_phih_normalized(sys, big, cur, delta, atom_cap, widths=widths)
        norms[k] = _sinf_norms(cur, trials)
        realized = max(realized, float(widths[0].reshape(trials, -1)[live].max(initial=delta)))
    rates = [_fit_geometric(norms[:, t], floor=1e-12 * s0[t])[0] for t in np.flatnonzero(live)]
    xi = max(rates, default=0.0)
    big_r = 1.0
    if xi > 0:
        ns = np.arange(1, n_steps + 1, dtype=float)
        with np.errstate(over="ignore"):
            pref = norms[:, live] / (s0[live] * xi ** ns[:, None])
        big_r = float(pref[np.isfinite(pref)].max(initial=big_r))
    return GapReport(xi=float(xi), R=float(big_r), trials=trials,
                     n_steps=n_steps, per_trial_rates=rates, realized_delta_max=realized)


def check_class_S(
    sys: SkewSystem, n_samples: int = 64, tol: float = 1e-10
) -> Optional[float]:
    """Search for a horizontal section fixed by every fiber map.

    Solves the 1-d fixed point of G(x, .) on a dense x-sample in every
    branch domain (the contraction makes plain iteration exact to roundoff;
    all samples advance together, one fiber-map call per step) and
    intersects: returns y0 with sup_x |G(x, y0) - y0| below tol, or None
    when the fixed points disagree across x.
    """
    xs = np.concatenate(
        [np.linspace(b.lo + 1e-9, b.hi - 1e-9, n_samples) for b in sys.base.branches]
    )
    # every sample iterates from 0.5 until its first step of less than 1e-16
    y = np.full_like(xs, 0.5)
    moving = np.ones(xs.size, dtype=bool)
    for _ in range(200):
        y_new = _elementwise(sys.fiber, xs, y)
        settled = np.abs(y_new - y) < 1e-16
        y = np.where(moving, y_new, y)
        moving &= ~settled
        if not moving.any():
            break
    y0 = float(np.median(y))
    worst = float(np.max(np.abs(_elementwise(sys.fiber, xs, np.full_like(xs, y0)) - y0)))
    return y0 if worst < tol else None


def reduce_potential(Phi: Observable, y0: float) -> Potential:
    """Collapse a fiber-fixing potential to the base: x -> Phi(x, y0).

    The base potential evaluates Phi once on any array of x it is given.
    """

    def base_fn(xs):
        xs = np.asarray(xs, dtype=float)
        return _elementwise(Phi, xs, np.full_like(xs, float(y0)))

    pot = Potential.from_callable(base_fn, zeta=Phi.zeta, name=f"{Phi.name}@y0={y0:g}")
    # the section inherits the ambient Holder bound
    if np.isfinite(Phi.holder_bound):
        pot = Potential(
            fn=pot.fn,
            zeta=pot.zeta,
            holder_const=min(pot.holder_const, Phi.holder_bound),
            sup=pot.sup,
            inf=pot.inf,
            name=pot.name,
        )
    return pot


@dataclass(frozen=True)
class LYS1Fit:
    """Fitted constants of ||Fbar^n mu||_S1 <= A beta2**n ||mu||_S1 + B2 ||mu||_1."""

    A: float
    beta2: float
    B2: float
    n_steps: int
    samples: int


def verify_LY_S1(
    sys: SkewSystem,
    rpf: RPFDiscretization,
    samples: int = 6,
    n_steps: int = 20,
    seed: int = 0,
    compress_delta: float = DEFAULT_COMPRESS_DELTA,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> LYS1Fit:
    """Fit the Lasota-Yorke constants of the normalized operator on S1.

    The steps compress at ``homogeneous_delta(compress_delta, atom_cap)``,
    as every iteration of the operator does.
    """
    rng = seeded(seed)
    delta = homogeneous_delta(compress_delta, atom_cap)
    lam = rpf.lam
    trajs = []
    for _ in range(samples):
        dm = _random_zero_average(rpf, sys.zeta, rng)
        # the plain operator acts on nu-referenced measures
        dm = replace(dm, ref_masses=rpf.nu.copy(), reference="nu")
        s0 = s1_norm(dm)
        w0 = l1_norm(dm)
        cur = dm
        sn = []
        for _ in range(n_steps):
            cur = apply_F_phi(sys, rpf, cur, delta, atom_cap)
            cur = cur.scaled(1.0 / lam)
            sn.append(s1_norm(cur))
        trajs.append((s0, w0, sn))
    b2 = 1.0
    for s0, w0, sn in trajs:
        b2 = max(b2, max(sn[-3:]) / max(w0, 1e-300))
    rn = np.zeros(n_steps)
    for s0, w0, sn in trajs:
        rn = np.maximum(rn, np.maximum(0.0, np.asarray(sn) - b2 * w0) / max(s0, 1e-300))
    beta2, a_const = _envelope_fit(rn, 1e-12)
    return LYS1Fit(A=a_const, beta2=beta2, B2=float(b2),
                   n_steps=n_steps, samples=samples)


@dataclass(frozen=True)
class RegularityBound:
    """Constants of the one-step Holder recursion and its fixed bound.

    beta = (alpha L)**zeta, D = L**zeta (A1 sup h / inf h + eps_phi + |G|_zeta)
    with A1 the measured Holder constant of the eigenfunction ratios
    h(y_i(x)) / h(x) divided by L**zeta; the equilibrium Holder constant is
    bounded by D / (1 - beta).
    """

    beta: float
    D: float
    bound: float
    A1: float
    eps_phi: float
    g_holder: float
    L: float

    def to_dict(self) -> dict:
        return asdict(self)


def regularity_constants(
    sys: SkewSystem, rpf: RPFDiscretization, eps_phi: float | None = None
) -> RegularityBound:
    """Evaluate the recursion constants from the computed eigendata."""
    z = sys.zeta
    big_l = sys.base.lip_max
    if eps_phi is None:
        eps_phi = check_hypotheses(sys.base, sys.potential, z, gridsize=4096).epsilon_phi
    # blended eigenfunction read at the branch preimages, one row per branch
    h_read = (rpf.wphi * rpf.h[rpf.src]).sum(axis=2) / rpf.wphi.sum(axis=2)
    # the largest row; a NaN row (0 / 0 where a branch's weight underflows)
    # is skipped
    a1 = float(np.fmax.reduce(_holder_rows(rpf.x, h_read / rpf.h, z) / big_l**z, initial=0.0))
    cond_h = float(np.max(rpf.h) / np.min(rpf.h))
    d_const = big_l**z * (a1 * cond_h + eps_phi + sys.fiber.g_holder)
    beta = (sys.alpha * big_l) ** z
    bound = d_const / (1.0 - beta) if beta < 1 else np.inf
    return RegularityBound(beta=float(beta), D=float(d_const), bound=float(bound),
                           A1=float(a1), eps_phi=float(eps_phi),
                           g_holder=sys.fiber.g_holder, L=float(big_l))
