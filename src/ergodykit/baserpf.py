"""Base maps on [0, 1], Holder potentials, and the discretized RPF operator.

The transfer operator of a branched covering map f with potential phi acts
on functions by (L g)(x) = sum over branch preimages y of g(y) exp(phi(y)).
We discretize by collocation at cell midpoints, reading g at each preimage
through the two-cell piecewise-linear stencil of ``_interp_stencil``.
The numerics are not rigorous (no validated enclosures); accuracy is
checked empirically through grid refinement and analytic special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dualnorm import _BOUND_SLACK, NumericError, _as_zeta
from .measures import seeded

__all__ = [
    "Branch",
    "BaseMap",
    "Potential",
    "RPFDiscretization",
    "HypothesisReport",
    "LYFit",
    "KernelDecay",
    "build_rpf",
    "twisted_operator",
    "check_hypotheses",
    "verify_lasota_yorke",
    "spectral_radius_on_kernel",
    "combined_expansion_bound",
    "discrete_holder_constant",
]

# Power iteration parameters: start from the constant vector, fixed
# relative tolerance, deterministic.
_PI_TOL = 1e-12
_PI_MAXIT = 100_000

# Pair entries evaluated at a time by the zeta < 1 Holder quotient (and
# block-pair bounds held at a time by its pruned search): 2 MB per
# float64 temporary, whatever the number of points.
_HOLDER_BLOCK_PAIRS = 2**18
# ``_holder_block_walk`` takes inputs of at most this many points as one
# block, all of whose pairs it evaluates (10 rows of 12 points: 0.15 ms,
# timeit on 2 vCPUs); larger ones are cut into blocks.
_HOLDER_BLOCK_POINTS = 64


class ConstructionError(ValueError):
    """Raised when a base map or discretization violates its contract."""


@dataclass(frozen=True)
class Branch:
    """One inverse branch of a covering map of [0, 1].

    ``forward`` maps the domain [lo, hi] onto [0, 1]; ``inverse`` is its
    right inverse defined on all of [0, 1] with image in [lo, hi] and
    Lipschitz constant at most ``lip_bound``.  ``meets_region`` marks the
    branches whose domain intersects the (possibly empty) non-expanding
    region of the map.  Both callables must accept numpy arrays.
    """

    lo: float
    hi: float
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    lip_bound: float
    meets_region: bool = False


def _branch_table(branches) -> tuple[np.ndarray, np.ndarray]:
    """Lookup table of ``BaseMap.apply``'s branch choice.

    Every branch but the last claims [lo, hi), the earliest in tuple order
    winning where claims overlap, and the last branch takes the rest.
    Between consecutive claim edges the choice is constant, so it is
    stored per gap: x lies in gap ``searchsorted(edges, x, "right")``,
    gap 0 below the first edge and the last gap from the last edge on
    (where NaN sorts too).  Returns ``(edges, pick)``, ``pick`` holding
    the branch of each gap.
    """
    last = len(branches) - 1
    lo, hi = np.array([(b.lo, b.hi) for b in branches[:last]], dtype=float).reshape(-1, 2).T
    edges = np.array(sorted(set(lo.tolist() + hi.tolist())))
    pick = np.full(edges.size + 1, last, dtype=np.intp)
    # claim i holds the gaps first[i]..final[i]; painting the claims in
    # reverse tuple order leaves the earliest on every gap it holds
    first = (np.searchsorted(edges, lo) + 1).tolist()
    final = np.searchsorted(edges, hi).tolist()
    for i in reversed(range(last)):
        pick[first[i]:final[i] + 1] = i
    return edges, pick


@dataclass(frozen=True)
class BaseMap:
    """A piecewise-invertible map of [0, 1] with declared expansion data.

    sigma > 1 is the expansion floor away from the non-expanding region,
    L >= the inverse-Lipschitz bound inside it, q counts the covering
    domains meeting the region.  Branch domains must tile [0, 1].
    """

    branches: tuple[Branch, ...]
    sigma: float
    L: float
    q: int
    region: Optional[tuple[float, float]] = None
    name: str = "basemap"
    _branch_of: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        brs = tuple(self.branches)
        object.__setattr__(self, "branches", brs)
        if not brs:
            raise ConstructionError("base map needs at least one branch")
        lo = min(b.lo for b in brs)
        hi = max(b.hi for b in brs)
        if abs(lo) > 1e-12 or abs(hi - 1.0) > 1e-12:
            raise ConstructionError("branch domains must cover [0, 1]")
        spans = sorted((b.lo, b.hi) for b in brs)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            if abs(b - c) > 1e-12:
                raise ConstructionError(
                    f"branch domains must tile [0, 1]; gap/overlap at ({b}, {c})"
                )
        if self.sigma <= 1.0:
            raise ConstructionError(f"sigma must exceed 1, got {self.sigma}")
        if not 0 <= self.q < len(brs):
            raise ConstructionError("q must satisfy 0 <= q < deg(f)")
        object.__setattr__(self, "_branch_of", _branch_table(brs))

    @property
    def deg(self) -> int:
        return len(self.branches)

    @property
    def lip_max(self) -> float:
        """Global inverse-Lipschitz bound max_i L_i (drives (alpha*L)**zeta)."""
        return max(b.lip_bound for b in self.branches)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward map, vectorized; branch chosen by domain membership.

        A point goes to the first branch, in tuple order, whose [lo, hi)
        holds it, and to the last branch when none of the others does
        (x = 1, points outside [0, 1], NaN).  The choice is one
        ``searchsorted`` lookup in the table ``_branch_table`` builds.
        One stable sort groups the points by branch, one ``bincount`` of
        the branch indices gives each branch's run of them, and each branch
        that holds a point gets one ``forward`` call on its points in their
        input order.  So a call makes one array call per touched branch,
        not one per branch, and beyond the sort its bookkeeping is a pass
        over at most deg integers: O(points log points + deg), not
        O(deg x points).
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        edges, pick = self._branch_of
        # array methods: the numpy functions add a dispatch layer that
        # costs more than the work on a few orbit points
        k = pick[edges.searchsorted(flat, side="right")]
        order = k.argsort(kind="stable")
        xs = flat[order]
        ys = np.empty_like(xs)
        # branch i's points end at the i-th cumulative count
        s = 0
        for i, e in enumerate(np.bincount(k).cumsum().tolist()):
            if e > s:
                ys[s:e] = self.branches[i].forward(xs[s:e])
                s = e
        out = np.empty_like(flat)
        out[order] = ys
        return out.reshape(x.shape).clip(0.0, 1.0)

    def preimages(self, x: np.ndarray) -> np.ndarray:
        """deg x len(x) array of branch preimages of x."""
        x = np.asarray(x, dtype=float)
        ys = np.empty((self.deg, x.size))
        for i, b in enumerate(self.branches):
            y = np.asarray(b.inverse(x), dtype=float)
            if np.any(y < b.lo - 1e-9) or np.any(y > b.hi + 1e-9):
                bad = y[(y < b.lo - 1e-9) | (y > b.hi + 1e-9)][0]
                raise ConstructionError(
                    f"branch {i} inverse value {bad!r} outside its domain "
                    f"[{b.lo}, {b.hi}]"
                )
            ys[i] = np.clip(y, b.lo, b.hi)
        return ys


def discrete_holder_constant(x: np.ndarray, v: np.ndarray, zeta: float) -> float:
    """Holder quotient max |v_i - v_j| / |x_i - x_j|**zeta over all pairs.

    Points need not be sorted.  Coincident positions with equal values add
    no constraint; coincident positions with different values give inf.
    A non-finite point or value gives NaN.

    At zeta = 1 only neighbours in sorted order are compared, which is
    exact on a line by the mediant argument: for x_i < x_j < x_k the
    increments of v obey the triangle inequality while those of x add, so
    the quotient of (i, k) is at most the larger of those of (i, j) and
    (j, k).  Any distance with the triangle inequality in place of
    |v_i - v_j| keeps the argument (``disint.disintegration_holder``, which
    shares this rule and the tie rule through ``_neighbour_rule``).

    At zeta < 1 that argument fails, and the maximum over all pairs is
    found by the pruned walk over pairs of blocks of ``_holder_block_walk``.
    The bound of a block pair (A, B) is the larger cross range of v,
    max(max_B v - min_A v, max_A v - min_B v), and its evaluation takes
    all the quotients of the pair.  Rows of constant v have bound 0
    everywhere and evaluate nothing.
    """
    v = np.asarray(v, dtype=float)
    return float(_holder_rows(x, v[None, :], zeta)[0])


def _holder_rows(x: np.ndarray, v: np.ndarray, zeta: float) -> np.ndarray:
    """``discrete_holder_constant`` of every row of the (k, n) array v on
    the shared points x, with one sort of x; each row's constant is the
    one it has alone, bit for bit."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return np.full(v.shape[0], np.nan)
    # rows holding a non-finite value are zeroed here and NaN at the end
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        v = np.where(bad[:, None], 0.0, v)
    best = np.zeros(v.shape[0])
    if x.size >= 2:
        order = np.argsort(x, kind="stable")
        x = x[order]
        v = v[:, order]
        keep, clash, best = _neighbour_rule(x, np.abs(np.diff(v, axis=1)))
        if zeta < 1.0 and keep.sum() >= 2:
            best = np.where(clash, np.inf, _pruned_holder_rows(x[keep], v[:, keep], zeta))
    best[bad] = np.nan
    return best


def _neighbour_rule(x: np.ndarray, step: np.ndarray):
    """The first point of each run of equal sorted x, whether each row of
    neighbour distances ``step`` is nonzero at a tie, and its zeta = 1
    Holder constant: the largest step over its gap, or inf at such a tie."""
    gap = np.diff(x)
    tied = gap == 0.0
    clash = np.any(step[..., tied] != 0.0, axis=-1)
    with np.errstate(over="ignore"):
        best = np.max(step[..., ~tied] / gap[~tied], axis=-1, initial=0.0)
    return np.r_[True, ~tied], clash, np.where(clash, np.inf, best)


def _strong_rows(x: np.ndarray, v: np.ndarray, zeta: float) -> np.ndarray:
    """The discrete strong norm H_zeta + sup |.| of every row of v on x."""
    return _holder_rows(x, v, zeta) + np.abs(v).max(axis=1, initial=0.0)


def _pruned_holder_rows(x: np.ndarray, v: np.ndarray, zeta: float) -> np.ndarray:
    """The zeta < 1 quotient of every row of v on strictly increasing x,
    by the block-bound search of ``discrete_holder_constant``."""

    def bound(rs, cells, a, b):
        # the larger cross range of v over the two blocks
        vb = v[rs][:, cells]
        vmin, vmax = vb.min(axis=2), vb.max(axis=2)
        return np.maximum(vmax[:, b] - vmin[:, a], vmax[:, a] - vmin[:, b])

    def evaluate(r, ia, ib, best):
        # every quotient; pairs i >= j, and the padding, have dx <= 0
        dx = x[ib][:, None, :] - x[ia][:, :, None]
        dx[dx <= 0.0] = np.inf
        dv = np.abs(v[r[:, None], ib][:, None, :] - v[r[:, None], ia][:, :, None])
        np.fmax.at(best, r, np.fmax.reduce((dv / dx**zeta).reshape(r.size, -1), axis=1))

    return _holder_block_walk(x, zeta, v.shape[0], bound, evaluate)


def _holder_block_walk(x: np.ndarray, zeta: float, rows: int, bound, evaluate) -> np.ndarray:
    """The largest zeta < 1 Holder quotient of each of ``rows`` rows on the
    strictly increasing points x, by the one pruned search over pairs of
    blocks of consecutive points (block k holds the points ``cells[k]``,
    the last padded with -1, the last point).

    ``bound(rs, cells, a, b)`` bounds the numerators of the rows ``rs`` over
    each block pair (a[p] <= b[p]); the walk divides by the smallest
    separation of the pair to the power zeta, lowered by the relative slack
    ``dualnorm._BOUND_SLACK`` and a few subnormal units so that it stays
    below every rounded power.  ``evaluate(r, ia, ib, best)`` raises
    ``best[r[e]]`` to the largest quotient of the pairs i < j, i in
    ``ia[e]`` and j in ``ib[e]``.  Block pairs are evaluated by decreasing
    bound while it exceeds the row's best, in takes that double up to
    about ``_HOLDER_BLOCK_PAIRS`` point pairs.  The pairs left cannot
    exceed the best, so the result is the all-pairs maximum bit for bit.
    """
    n = x.size
    # a few points are one block; above that, about (4 n)**(1/3) points per
    # block balances the bounds of all block pairs against the quotients of
    # the pairs near the diagonal, which are always evaluated, and at most
    # 512 blocks keep the bounds small
    size = n if n <= _HOLDER_BLOCK_POINTS else max(round(np.cbrt(4.0 * n)), -(-n // 512))
    nb = -(-n // size)
    cells = np.r_[np.arange(n), np.full(nb * size - n, -1)].reshape(nb, size)
    xb = x[cells]
    a, b = np.triu_indices(nb)
    step = np.diff(xb, axis=1)
    step[step <= 0.0] = np.inf
    gap = np.where(a == b, step.min(axis=1, initial=np.inf)[a], xb[b, 0] - xb[a, -1])
    floor = np.maximum(gap**zeta * (1.0 - _BOUND_SLACK) - 2.0**-1070, 0.0)
    chunk = max(1, _HOLDER_BLOCK_PAIRS // (size * size))
    best = np.zeros(rows)

    def walk(rows, pairs, q, take):
        # the block pairs in the given order, ``take`` at a time (doubling
        # up to ``chunk``), each only while its bound q exceeds its row's best
        while rows.size:
            live = q > best[rows]
            rows, pairs, q = rows[live], pairs[live], q[live]
            r, p = rows[:take], pairs[:take]
            rows, pairs, q = rows[take:], pairs[take:], q[take:]
            if r.size == 0:
                return
            evaluate(r, cells[a[p]], cells[b[p]], best)
            take = min(2 * take, chunk)

    # rows in groups of about _HOLDER_BLOCK_PAIRS block-pair bounds; in each
    # row a first best from its 4 block pairs of largest bound (found without
    # sorting them all), then every other block pair left above it, by
    # decreasing bound
    group = max(1, _HOLDER_BLOCK_PAIRS // a.size)
    first = min(a.size, 4)
    for r0 in range(0, rows, group):
        rs = np.arange(r0, min(r0 + group, rows))
        with np.errstate(over="ignore", divide="ignore"):
            span = bound(rs, cells, a, b)
            q = np.divide(span, floor, out=np.zeros_like(span), where=span > 0.0)
        top = np.argpartition(q, q.shape[1] - first, axis=1)[:, -first:]
        walk(np.repeat(rs, first), top.ravel(), np.take_along_axis(q, top, axis=1).ravel(), chunk)
        np.put_along_axis(q, top, 0.0, axis=1)  # evaluated, or below best
        i, p = np.nonzero(q > best[rs][:, None])
        order = np.argsort(-q[i, p], kind="stable")
        walk(rs[i[order]], p[order], q[i, p][order], first)
    return best


@dataclass(frozen=True)
class Potential:
    """A potential on [0, 1] with sampled regularity statistics."""

    fn: Callable[[np.ndarray], np.ndarray]
    zeta: float
    holder_const: float
    sup: float
    inf: float
    name: str = "potential"

    @staticmethod
    def from_callable(fn, zeta=1.0, gridsize: int = 4096, name: str = "potential"):
        z = _as_zeta(zeta)
        x = (np.arange(gridsize) + 0.5) / gridsize
        v = np.asarray(fn(x), dtype=float)
        # a huge potential overflows the Holder quotients: refused below
        with np.errstate(over="ignore"):
            holder = discrete_holder_constant(x, v, z)
        if not (np.all(np.isfinite(v)) and np.isfinite(holder)):
            raise ConstructionError(
                f"potential {name}: sampled values or their Holder constant are not finite"
            )
        return Potential(
            fn=fn,
            zeta=z,
            holder_const=holder,
            sup=float(v.max()),
            inf=float(v.min()),
            name=name,
        )

    @staticmethod
    def constant(c: float, zeta=1.0, name: str | None = None):
        cc = float(c)
        return Potential(
            fn=lambda x, _c=cc: np.full_like(np.asarray(x, dtype=float), _c),
            zeta=_as_zeta(zeta),
            holder_const=0.0,
            sup=cc,
            inf=cc,
            name=name or f"const({cc:g})",
        )


def _power_iteration(matvec, n: int, tol: float = _PI_TOL, maxit: int = _PI_MAXIT):
    """Perron vector of a nonnegative operator by power iteration.

    Starts from the constant vector; returns (vector with unit l1 norm,
    eigenvalue, iterations).  Raises NumericError when the successive
    relative change has not dropped below tol after maxit steps.
    """
    v = np.full(n, 1.0 / n)
    lam = 1.0
    for it in range(1, maxit + 1):
        u = matvec(v)
        s = float(u.sum())
        if s <= 0 or not np.isfinite(s):
            raise NumericError(f"power iteration degenerated at step {it}")
        u /= s
        delta = float(np.max(np.abs(u - v)) / max(np.max(np.abs(u)), 1e-300))
        v = u
        lam = s
        if delta < tol:
            return v, lam, it
    raise NumericError(
        f"power iteration did not reach tol={tol} after {maxit} iterations"
    )


def _gather(src: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for the stencil matrix M with M[j, src[i, j, s]] += w[i, j, s].

    v may carry leading axes (rows of vectors); each row's product is the
    one it has alone, and the result is C-contiguous like v (indexing the
    last axis returns strided rows, whose BLAS dot products add in another
    order).  The terms add branch by branch, each branch's two stencil
    sides first, in the order ``(w * v[src]).sum(axis=(0, 2))`` adds them.
    """
    out = 0.0
    for i in range(src.shape[0]):
        out = out + (w[i, :, 0] * v[..., src[i, :, 0]] + w[i, :, 1] * v[..., src[i, :, 1]])
    return np.ascontiguousarray(out)


def _scatter(src: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """M^T u for the same stencil matrix."""
    return np.bincount(src.ravel(), (w * u[None, :, None]).ravel(), minlength=u.size)


def _densify(src: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The n x n matrix of a stencil; only ``export_matrix`` needs it."""
    n = src.shape[1]
    rows = np.broadcast_to(np.arange(n)[None, :, None], src.shape)
    mat = np.zeros((n, n))
    np.add.at(mat, (rows.ravel(), src.ravel()), w.ravel())
    return mat


@dataclass(frozen=True, eq=False)
class RPFDiscretization:
    """Grid discretization of the transfer operator with its eigendata.

    Functions are reconstructed from cell values by piecewise-linear
    interpolation between midpoints, so every branch preimage reads two
    source cells with complementary split weights (``src`` and ``wphi``;
    the split weights carry the factor exp(phi(preimage)) and sum to it
    over the last axis).  This (deg, n, 2) stencil is the operator, with
    2 deg nonzeros per row: ``_gather`` and ``_scatter`` apply it and its
    adjoint in O(deg n) time and memory, and only ``export_matrix``
    builds the n x n matrix.

    Eigendata follows the Perron structure of the nonnegative operator:
    lam > 0, h > 0 entrywise (right eigenvector at midpoints, normalized
    so that sum(h * nu) = 1), nu >= 0 the left eigenvector as probability
    cell masses, and m = h * nu the invariant cell masses.  ``weights``
    holds the row-stochastic split weights of the normalized h-twisted
    operator on the same ``src``, so mass is conserved to machine
    precision in operator applications.  The value is immutable: derived
    operators (``twisted_operator``) and measurements
    (``spectral_radius_on_kernel``) are returned, never stored on it.
    ``==`` and ``hash`` go by identity.
    """

    n: int
    x: np.ndarray
    lam: float
    h: np.ndarray
    nu: np.ndarray
    m: np.ndarray
    preimages: np.ndarray      # (deg, n) branch preimages of midpoints
    src: np.ndarray            # (deg, n, 2) interpolation source cells
    wphi: np.ndarray           # (deg, n, 2) exp(phi) * split weights
    weights: np.ndarray        # (deg, n, 2) normalized twisted split weights
    resid_right: float
    resid_left: float
    power_iters: int
    base: BaseMap
    potential: Potential
    kind: str = "plain"

    @property
    def deg(self) -> int:
        return self.base.deg

    def eigen_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "h": self.h.tolist(),
            "nu": self.nu.tolist(),
            "m": self.m.tolist(),
            "resid_right": self.resid_right,
            "resid_left": self.resid_left,
        }

    def export_matrix(self, path, fmt: str = "csv"):
        """Dump the operator as a dense matrix: CSV rows or a JSON array."""
        import json

        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        mat = _densify(self.src, self.wphi)
        with open(path, "w") as fh:
            if fmt == "csv":
                lines = [",".join(format(v, ".17g") for v in row) for row in mat]
                fh.write("\n".join(lines) + "\n")
            else:
                json.dump(mat.tolist(), fh)


def _interp_stencil(y: np.ndarray, n: int):
    """Piecewise-linear read stencil: source cells and split fractions.

    A value at y is (1 - frac) * v[k0] + frac * v[k1] with k0, k1 the
    midpoints bracketing y; beyond the first/last midpoint the read is
    constant on the edge cell.
    """
    t = y * n - 0.5
    k0 = np.clip(np.floor(t).astype(np.int64), 0, n - 1)
    frac = np.clip(t - k0, 0.0, 1.0)
    k1 = np.minimum(k0 + 1, n - 1)
    frac[k1 == k0] = 0.0
    return k0, k1, frac


def _check_stencil(deg: int, n: int):
    # build_rpf's largest array, sized first: numpy refuses it with a ValueError
    if deg * n * 2 * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a ({deg}, {n}, 2) stencil is more than numpy can address")


def build_rpf(basemap: BaseMap, pot: Potential, n: int) -> RPFDiscretization:
    """Discretize the transfer operator on n midpoint-collocation cells.

    Row j of the operator encodes (L g)(x_j) = sum_i g(y_ij) exp(phi(y_ij))
    with y_ij the branch-i preimage of the midpoint x_j and g read by
    piecewise-linear interpolation between midpoints; it is stored as the
    (deg, n, 2) stencil ``src``/``wphi``, never as a matrix.  The leading
    eigentriple comes from power iteration (right) and adjoint power
    iteration (left); nu is normalized to a probability and h so that
    sum(h * nu) = 1.  Raises ConstructionError when exp(phi) overflows at
    a preimage, and MemoryError, before anything is allocated, when the
    stencil is too big for numpy to address.
    """
    if n < 8:
        raise ConstructionError(f"need at least 8 cells, got n={n}")
    deg = basemap.deg
    _check_stencil(deg, n)
    x = (np.arange(n) + 0.5) / n
    ys = basemap.preimages(x)
    with np.errstate(over="ignore", invalid="ignore"):
        ephi = np.exp(np.asarray(pot.fn(ys), dtype=float))
    if not np.all(np.isfinite(ephi)):
        raise ConstructionError(
            f"potential {pot.name}: exp(phi) is not finite at a branch preimage"
        )
    src = np.empty((deg, n, 2), dtype=np.int64)
    wphi = np.empty((deg, n, 2))
    for i in range(deg):
        k0, k1, frac = _interp_stencil(ys[i], n)
        src[i, :, 0], src[i, :, 1] = k0, k1
        wphi[i, :, 0] = ephi[i] * (1.0 - frac)
        wphi[i, :, 1] = ephi[i] * frac

    h_raw, lam, iters_r = _power_iteration(lambda v: _gather(src, wphi, v), n)
    if np.min(h_raw) <= 0:
        raise NumericError("right eigenvector lost positivity")

    # Exactly row-stochastic normalized twisted weights: share of output
    # cell j through branch i and stencil side s is A[i, j, s] / row sum.
    a = wphi * h_raw[src] / (lam * h_raw[None, :, None])
    srow = a.sum(axis=(0, 2))
    weights = a / srow[None, :, None]

    m_vec, _, iters_l = _power_iteration(lambda v: _scatter(src, weights, v), n)
    # nu and h rescaled so that nu is a probability and m = h * nu exactly
    nu_raw = m_vec / h_raw
    c = float(nu_raw.sum())
    nu = nu_raw / c
    h = h_raw * c
    m_vec = h * nu

    resid_right = float(
        np.max(np.abs(_gather(src, wphi, h) - lam * h)) / (lam * np.max(np.abs(h)))
    )
    resid_left = float(
        np.sum(np.abs(_scatter(src, wphi, nu) - lam * nu)) / (lam * np.sum(np.abs(nu)))
    )

    return RPFDiscretization(
        n=n,
        x=x,
        lam=float(lam),
        h=h,
        nu=nu,
        m=m_vec,
        preimages=ys,
        src=src,
        wphi=wphi,
        weights=weights,
        resid_right=resid_right,
        resid_left=resid_left,
        power_iters=iters_r + iters_l,
        base=basemap,
        potential=pot,
    )


def twisted_operator(rpf: RPFDiscretization) -> RPFDiscretization:
    """Conjugate the discretization by the eigenfunction h.

    Returns the discretization of L_h(g) = L(g h) / h, whose matrix is
    D_h^{-1} M D_h: the same ``src`` with the stencil
    wphi * h[src] / h[row].  Its eigenfunction is constant, its conformal
    measure is m, and its normalized form fixes the constant vector: row
    sums of the operator / lambda equal 1 up to the eigen residual.
    """
    if rpf.kind == "twisted":
        return rpf
    if float(np.min(rpf.h)) < 1e-12:
        raise NumericError("eigenfunction too close to zero to conjugate")
    wphi = rpf.wphi * rpf.h[rpf.src] / rpf.h[None, :, None]
    ones = np.ones(rpf.n)
    resid_right = float(np.max(np.abs(_gather(rpf.src, wphi, ones) - rpf.lam)) / rpf.lam)
    resid_left = float(
        np.sum(np.abs(_scatter(rpf.src, wphi, rpf.m) - rpf.lam * rpf.m))
        / (rpf.lam * np.sum(rpf.m))
    )
    return replace(
        rpf,
        wphi=wphi,
        h=ones,
        nu=rpf.m.copy(),
        m=rpf.m.copy(),
        resid_right=resid_right,
        resid_left=resid_left,
        kind="twisted",
    )


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

def combined_expansion_bound(
    deg: int, q: int, sigma: float, L: float, zeta: float, epsilon: float
) -> float:
    """The expansion/contraction balance that must stay below 1.

    exp(eps) * ((deg - q) * sigma**-zeta + q * L**zeta * (1 + (L-1)**zeta)) / deg
    """
    z = _as_zeta(zeta)
    if epsilon > 700.0:  # exp would overflow; the bound is violated anyway
        return np.inf
    excess = max(L - 1.0, 0.0) ** z
    return float(
        np.exp(epsilon) * ((deg - q) * sigma**-z + q * L**z * (1.0 + excess)) / deg
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Measured constants and pass flags for the standing hypotheses."""

    f1_pass: bool
    branch_lipschitz: tuple[float, ...]
    f2_pass: bool
    deg: int
    q: int
    sigma: float
    L: float
    zeta: float
    oscillation: float          # sup phi - inf phi
    holder_exp_phi: float       # sampled Holder constant of exp(phi)
    epsilon_phi: float          # smallest eps making both bounds hold
    combined_value: float
    combined_pass: bool
    alpha: Optional[float] = None
    g_holder: Optional[float] = None
    alpha_l_value: Optional[float] = None
    alpha_l_ok: Optional[bool] = None

    def to_dict(self) -> dict:
        d = {
            "f1": {"pass": self.f1_pass, "branch_lipschitz": list(self.branch_lipschitz),
                   "L": self.L, "sigma": self.sigma},
            "f2": {"pass": self.f2_pass, "deg": self.deg, "q": self.q},
            "f3": {
                "oscillation": self.oscillation,
                "holder_exp_phi": self.holder_exp_phi,
                "epsilon_phi": self.epsilon_phi,
                "combined_value": self.combined_value,
                "pass": self.combined_pass,
            },
            "zeta": self.zeta,
        }
        if self.alpha is not None:
            d["fiber"] = {
                "alpha": self.alpha,
                "g_holder": self.g_holder,
                "alpha_l_value": self.alpha_l_value,
                "alpha_l_ok": self.alpha_l_ok,
            }
        return d


def check_hypotheses(
    basemap: BaseMap, pot: Potential, zeta=1.0, gridsize: int = 8192
) -> HypothesisReport:
    """Measure the standing inequalities; failures are report content.

    f1: per-branch inverse Lipschitz constants against L (branches meeting
    the non-expanding region) or 1/sigma (the rest).  f3: the smallest
    eps_phi with sup-inf oscillation and H_zeta(exp(phi)) / exp(inf phi)
    both below it, then the combined expansion bound evaluated at eps_phi.

    The Holder constant of exp(phi) is sampled per branch domain: every
    estimate that consumes it pairs preimages inside a single branch, and
    the potential (like the dynamics) may jump across branch boundaries.
    """
    z = _as_zeta(zeta)
    tol = 1e-9
    ygrid = np.linspace(0.0, 1.0, gridsize)
    lips = []
    ok1 = True
    for b in basemap.branches:
        inv = np.asarray(b.inverse(ygrid), dtype=float)
        quot = float(np.max(np.abs(np.diff(inv)) / np.diff(ygrid)))
        lips.append(quot)
        bound = basemap.L if b.meets_region else 1.0 / basemap.sigma
        if quot > bound + tol:
            ok1 = False
    ok2 = basemap.q < basemap.deg  # domain tiling is validated at construction

    per_branch = max(gridsize // basemap.deg, 512)
    sups, infs, holders = [], [], []
    for b in basemap.branches:
        xg = np.linspace(b.lo + 1e-12, b.hi - 1e-12, per_branch)
        phi_b = np.asarray(pot.fn(xg), dtype=float)
        sups.append(phi_b.max())
        infs.append(phi_b.min())
        holders.append(discrete_holder_constant(xg, np.exp(phi_b), z))
    # folded by np.max, which keeps a NaN (the builtin max drops it): a
    # potential that is not finite on the grid gives eps = NaN or inf and fails
    sup_phi, inf_phi, h_exp = float(np.max(sups)), float(np.min(infs)), np.max(holders)
    osc = sup_phi - inf_phi
    with np.errstate(divide="ignore", invalid="ignore"):  # exp(-inf) = 0
        eps = float(np.max([osc, h_exp / np.exp(inf_phi)]))
    value = combined_expansion_bound(
        basemap.deg, basemap.q, basemap.sigma, basemap.L, z, eps
    )
    return HypothesisReport(
        f1_pass=ok1,
        branch_lipschitz=tuple(lips),
        f2_pass=ok2,
        deg=basemap.deg,
        q=basemap.q,
        sigma=basemap.sigma,
        L=basemap.L,
        zeta=z,
        oscillation=osc,
        holder_exp_phi=float(h_exp),
        epsilon_phi=eps,
        combined_value=value,
        combined_pass=value < 1.0,
    )


# ---------------------------------------------------------------------------
# empirical spectral estimates
# ---------------------------------------------------------------------------

def _test_vectors(x: np.ndarray, samples: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded random Holder test vectors on the points x, max |g| = 1 each.

    Even rows are three cosines with integer frequencies 1-4,
    standard-normal amplitudes and uniform phases; odd rows interpolate six
    standard-normal values through four sorted uniform knots.  The draws
    come from ``measures.seeded(seed)``, a ``random.Random``.
    """
    rng = seeded(seed)
    out = []
    for k in range(samples):
        if k % 2 == 0:
            freqs = [rng.randint(1, 4) for _ in range(3)]
            amps = [rng.gauss(0.0, 1.0) for _ in range(3)]
            g = sum(a * np.cos(np.pi * f * x + rng.uniform(0.0, 2 * np.pi))
                    for a, f in zip(amps, freqs))
        else:
            knots = sorted(rng.random() for _ in range(4))
            vals = [rng.gauss(0.0, 1.0) for _ in range(6)]
            g = np.interp(x, [0.0, *knots, 1.0], vals)
        g = np.asarray(g, dtype=float)
        g /= max(np.max(np.abs(g)), 1e-12)
        out.append(g)
    return out


def _strong_norms(
    rpf: RPFDiscretization, v: np.ndarray, zeta: float, n_steps: int, proj=None
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete strong norms H_zeta + sup of the rows of v under iteration.

    Returns the (samples,) norms of v and the (n_steps, samples) norms of
    its images v_k = proj(L v_{k-1} / lambda), all rows advancing as one
    array (``proj`` defaults to the identity).  Each row's norms are the
    ones it has alone.
    """
    s0 = _strong_rows(rpf.x, v, zeta)
    sn = np.empty((n_steps, v.shape[0]))
    for k in range(n_steps):
        v = _gather(rpf.src, rpf.wphi, v) / rpf.lam
        if proj is not None:
            v = proj(v)
        sn[k] = _strong_rows(rpf.x, v, zeta)
    return s0, sn


@dataclass(frozen=True)
class LYFit:
    """Fitted constants of |L^n g|_s <= B1 * beta1**n * |g|_s + C1 * |g|_w."""

    B1: float
    beta1: float
    C1: float
    n_steps: int
    samples: int

    @property
    def contracting(self) -> bool:
        return self.beta1 < 1.0


def _envelope_fit(rn: np.ndarray, floor: float) -> tuple[float, float]:
    """Smallest geometric envelope rn[k] <= B * beta**(k + 1) of an excess.

    Only the steps whose excess is above ``floor`` are fitted.  beta is
    the largest per-step ratio (rn[j] / rn[i])**(1 / (j - i)) over pairs
    of such steps, B the prefactor that makes the envelope touch the
    largest of them, found in the log domain because beta**(k + 1) may
    leave the float range.  One step above the floor gives beta =
    rn**(1 / (k + 1)) and B = 1; none gives (0, 1).
    """
    idx = np.nonzero(rn > floor)[0]
    if idx.size == 0:
        return 0.0, 1.0
    if idx.size == 1:
        return float(rn[idx[0]] ** (1.0 / (idx[0] + 1.0))), 1.0
    beta = 0.0
    for a in range(idx.size - 1):
        for b in range(a + 1, idx.size):
            i, j = idx[a], idx[b]
            beta = max(beta, (rn[j] / rn[i]) ** (1.0 / (j - i)))
    log_pre = np.max(np.log(rn[idx]) - (idx + 1.0) * np.log(beta))
    with np.errstate(over="ignore"):  # B = inf: no finite prefactor exists
        pre = np.exp(log_pre)
    if pre < np.finfo(float).tiny:
        # a subnormal B keeps few digits: round it up so the envelope holds
        pre = np.nextafter(pre, np.inf)
    return float(beta), float(pre)


def verify_lasota_yorke(
    rpf: RPFDiscretization, zeta=1.0, samples: int = 10, n_steps: int = 30, seed: int = 0
) -> LYFit:
    """Fit the smallest Lasota-Yorke triple on sampled Holder vectors.

    Uses the discrete strong norm |g|_s = H_zeta(g) + |g|_inf and weak
    norm |g|_w = |g|_inf.  C1 is the plateau level of |L^n g|_s / |g|_w
    (at least 1, forced by constant g), beta1 the smallest geometric
    envelope rate of the excess above the plateau, B1 its prefactor.
    The sample vectors iterate together, as in ``spectral_radius_on_kernel``.
    """
    if samples < 10:
        raise ValueError("need at least 10 sample vectors")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    z = _as_zeta(zeta)
    g = np.array(_test_vectors(rpf.x, samples, seed))
    s0, sn = _strong_norms(rpf, g, z, n_steps)
    w0 = np.max(np.abs(g), axis=1)
    c1 = max(1.0, float(np.max(sn[-5:].max(axis=0) / np.maximum(w0, 1e-300))))
    excess = np.maximum(0.0, sn - c1 * w0) / np.maximum(s0, 1e-300)
    beta1, b1 = _envelope_fit(excess.max(axis=1), 1e-13)
    return LYFit(B1=b1, beta1=beta1, C1=float(c1),
                 n_steps=n_steps, samples=samples)


@dataclass(frozen=True)
class KernelDecay:
    """Measured decay |L^n g|_s <= D * r**n * |g|_s on the kernel of P."""

    r_hat: float
    D_hat: float
    n_steps: int
    samples: int


def spectral_radius_on_kernel(
    rpf: RPFDiscretization, zeta=1.0, samples: int = 10, n_steps: int = 30, seed: int = 0
) -> KernelDecay:
    """Estimate the sub-leading decay rate on the fixed-point complement.

    Random Holder vectors are projected off the leading eigendirection,
    g - (integral of g d nu) * h (on the twisted operator h = 1 and nu = m,
    so this is g - integral of g dm), and the strong-norm decay under
    iteration is fitted by least squares on the log scale over the usable
    range.  The projection is repeated after every step: the rounding
    residue it leaves in the leading direction does not decay, and left
    alone it would set a floor that moves the fit under any change of
    summation order.  The usable range ends at the first step where the
    norm stops decreasing or falls below 1e-13 of its start.  All test
    vectors advance together as the rows of one array (``_strong_norms``),
    each with the norms it has alone.
    """
    if samples < 10:
        raise ValueError("need at least 10 sample vectors")
    if n_steps < 4:
        raise ValueError(f"n_steps must be at least 4 for the decay fit, got {n_steps}")
    z = _as_zeta(zeta)
    # one BLAS dot per row: a matrix-vector product adds in another order
    # and would move r_hat in its last bits
    proj = lambda g: g - np.array([np.dot(rpf.nu, r) for r in g])[:, None] * rpf.h
    s0_all, sn_all = _strong_norms(
        rpf, proj(np.array(_test_vectors(rpf.x, samples, seed))), z, n_steps, proj
    )
    r_hat = 0.0
    d_hat = 1.0
    for s0, sn in zip(s0_all, sn_all.T):
        if s0 < 1e-12:
            continue
        decaying = (sn > 1e-13 * s0) & (np.r_[np.inf, sn[:-1]] > sn)
        usable = np.arange(n_steps if decaying.all() else int(np.argmin(decaying)))
        if usable.size < 4:
            continue
        tail = usable[usable.size // 2:]
        ns = tail + 1.0
        slope, icept = np.polyfit(ns, np.log(sn[tail]), 1)
        rate = float(np.exp(slope))
        r_hat = max(r_hat, rate)
        if rate > 0:
            d_hat = max(d_hat, float(np.max(sn[usable] / (s0 * rate ** (usable + 1.0)))))
    return KernelDecay(r_hat=r_hat, D_hat=d_hat, n_steps=n_steps, samples=samples)
