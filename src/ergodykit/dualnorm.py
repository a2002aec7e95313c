"""Wasserstein-Kantorovich-like dual norm of atomic signed measures.

For an atomic signed measure mu on K = [0, 1] and a Holder exponent zeta,
the norm is

    ||mu||_o = sup { integral of g d(mu) : |g|_inf <= 1, H_zeta(g) <= 1 },

where H_zeta(g) is the zeta-Holder constant.  For atomic mu the supremum is
attained by optimizing the values of g at the atom positions only (any
assignment feasible on the atoms extends to K by a Holder envelope), which
turns the evaluation into a finite linear program:

    maximize sum_i w_i g_i
    s.t.     |g_i| <= 1,   |g_i - g_j| <= |x_i - x_j|**zeta  for all pairs.

``_dual_norm_lp`` solves it with all pair constraints (n variables, n bound
rows plus n(n-1)/2 Holder rows) and returns an optimal g as a witness; it
is the test oracle.  ``dual_norms`` (and ``dual_norm``, its one-measure
case) takes one of two exact routes instead, by zeta.

At zeta == 1 the norm has an exact closed form, evaluated by
``chain_norms`` for many measures at once.  On a line the adjacent-pair
constraints |g_{i+1} - g_i| <= d_i (d_i the gap to the next atom) imply
all others.  The dual of that LP transports the cumulative weights
F_i = w_1 + ... + w_i along the chain at cost d_i per unit, and removes
mass at unit cost.  With the total mass M = F_n >= 0 (flip the sign of mu
otherwise), a removal pattern that is not monotone pays more in removal
than it saves in transport, so

    ||mu||_o = M + min over nondecreasing S with values in [0, M]
                   of sum_i d_i |F_i - S_i|,

a weighted L1 isotonic regression (Robertson, Wright and Dykstra, Order
Restricted Statistical Inference, 1988).  Threshold decomposition,
|F - S| = integral over t of |[F > t] - [S > t]|, splits it into one
problem per level t.  Outside [0, M] the level costs sum_i d_i dist(F_i,
[0, M]) in total.  Inside, [S_i > t] is a 0/1 step at some index k, which
costs B(t) + P_k(t), with

    B(t)   = sum_i d_i [F_i <= t],
    P_k(t) = sum_{i<k} d_i ([F_i > t] - [F_i <= t]).

The best steps of the levels can be chosen nested, so they stack into one
monotone S, and the minimum is attained exactly:

    ||mu||_o = M + sum_i d_i dist(F_i, [0, M])
                 + integral over [0, M] of [B(t) + min(0, min_k P_k(t))] dt.

The integrand is constant between the F_i in (0, M), so the integral is a
finite sum.  Agreement with the LP to 1e-9 is enforced in the test suite.

At zeta < 1 ``transport_norms`` splits the norm over the same levels t,
with a small matching problem per level, for many measures at once.  For
0 < zeta <= 1 the cost c(x, y) = |x - y|**zeta is a metric, and the LP
above is the Kantorovich dual of a transport problem: move the positive
part of mu onto the negative part at cost c per unit, and create or remove
mass at cost 1 per unit (the bounds |g| <= 1).  Flip the sign of mu so
that M >= 0.  On K = [0, 1] c <= 1, so creating one unit and removing
another (cost 2) never beats shipping the one to the other: some optimal
plan only removes, M units in all.  Count removal as shipping to a sink at
+inf at cost 1; the cost h = min(c, 1) is then concave and nondecreasing
in the distance.

Levels.  At a level t, atom i is a crossing when t lies in its jump
[min(F_{i-1}, F_i), max(F_{i-1}, F_i)) (F_0 = 0), upward when w_i > 0, and
mu is the integral over t of the level measures mu_t = sum over the
crossings of +-delta.  Along the line the crossings alternate in
direction, since the indicator [F_i > t] switches at each of them, and
there is one more up than down exactly when 0 <= t < M; the sink takes
that one.

Upper bound.  A matching of the crossings of each level, every up joined
to a down or to the sink, is a plan for mu_t, and the levels' plans add up
to a plan for mu.  So ||mu||_o <= integral over t of K(t), with K(t) the
cheapest such matching.

Lower bound.  For a concave nondecreasing cost on a line some optimal plan
is non-crossing: if arcs a-c and b-d interleave (a < b < c < d), joining
the four endpoints as nested or as disjoint arcs, whichever the signs
allow, never costs more (Gangbo and McCann, The geometry of optimal
transportation, Acta Math. 1996; Delon, Salomon and Sobolevski, Local
matching indicators for transport problems with concave costs, 2012).  As
the sink sits at +inf, no arc encloses an atom that ships to it.  Scan
such a plan left to right with its open arcs on a stack: each atom first
closes the arcs that end at it, which lie on top since no arcs interleave,
then opens its arcs to the right (the sink's included).  Read from the
bottom, the stack is a path from level 0 that rises by each arc a positive
atom opened and falls by each arc a negative atom opened; after atom i it
ends at F_i.  A unit of arc keeps the level at which it was pushed until
it is popped, because only the stack above it changes.  So every atom's
arcs cover its jump in F once, each unit joins an up and a down crossing
(or an up and the sink) of one level t, and the units at level t form a
matching of the crossings of mu_t.  The plan costs the integral of those
matchings, at least the integral of K(t).

Per level.  The level matchings of a non-crossing plan are non-crossing
too, so both bounds hold with K(t) the cheapest non-crossing matching, and
they meet.  By the alternation a pair (a, j) of crossings, in position
order, joins opposite directions exactly when j - a is odd, and the sink,
appended as the last point, is never enclosed.  With C the cost of the
empty range 0,

    C(a, b) = min over odd j - a of h(a, j) + C(a + 1, j - 1) + C(j + 1, b),

K(t) = C over all the crossings of the level (and the sink), an O(m**3)
interval DP for m crossings.  K is constant between consecutive values
of F, so the norm is the sum over those levels of K times their width.
At zeta = 1 it equals the closed form above; the tests check the two
routes against each other, and both against the LP to 1e-9.

Jensen bound.  The zeta = 1 norm bounds the zeta < 1 norm from above, at
the cost of one ``chain_norms`` evaluation.  Flip the sign of mu so that
M >= 0, let T be its total variation, P = (T - M) / 2 the mass of its
negative part, and D1 its zeta = 1 norm.  By the argument above at
zeta = 1, some optimal plan removes exactly M units and ships the rest
of the positive part, P units, onto the negative part, at cost |x - y|
per unit (<= 1 on K).  So its shipping part pi, of mass P, costs
D1 - M.  The same plan is feasible at zeta, and there each unit costs at
most |x - y|**zeta.  The map t -> t**zeta is concave, so by Jensen's
inequality

    ||mu||_zeta <= M + integral of |x - y|**zeta d(pi)
                <= M + P (integral of |x - y| d(pi) / P)**zeta
                 = M + P**(1 - zeta) (D1 - M)**zeta.

The right side grows with P, so any P' >= P can replace it.  For
mu = mu_a - mu_b with mu_a, mu_b >= 0, T <= |mu_a| + |mu_b|, so
P' = min(|mu_a|, |mu_b|) works without forming the difference.
``disint.disintegration_holder`` prunes its pairs of cells by this bound.
It adds a rounding slack inside the powers as well as outside them: a
relative slack alone would fail when D1 - M lies below the rounding of
D1, because t -> t**zeta turns an absolute error e into about e**zeta.

Zeta = 1 lower bound.  The zeta = 1 norm also bounds the zeta < 1 norm
from below.  On K = [0, 1], |x - y| <= |x - y|**zeta, so a g with
|g|_inf <= 1 and H_1(g) <= 1 has H_zeta(g) <= 1: the zeta = 1 unit ball
lies inside the zeta unit ball, and the supremum over the larger ball is
at least D1.  ``transfer.iterate_to_equilibrium(..., distances=False)``
decides its stop rule from this bound where it can: a cell with
D1 - s >= tol shows that the largest distance is not below tol.  The two
norms are computed by different routes, and where they nearly agree the
computed D1 can exceed the computed zeta-norm by a few roundings (up to
about 2e-16 of the total variation T on 12-atom measures at
zeta = 1 - 2**-50).  So the slack s is absolute,
2**-30 (|mu_a| + |mu_b|) >= 2**-30 T for mu = mu_a - mu_b, far above that
rounding and far below the distances the bound decides by.

scipy (HiGHS) is needed only by the oracle ``_dual_norm_lp``, so
``linprog`` below imports it on its first call, and the library itself
never solves an LP.  The module-level ``linprog`` is also the one name the
tests and the benchmark wrap to count LP solves.
"""

from __future__ import annotations

import numpy as np

from .measures import AtomicSignedMeasure, _lex_order, canonicalize, canonicalize_segments

__all__ = [
    "NumericError",
    "dual_norm",
    "dual_norms",
    "distance_value",
    "lower_bound_sample",
    "chain_norms",
    "transport_norms",
]

_LP_OPTIONS = dict(
    presolve=False,
    primal_feasibility_tolerance=1e-10,
    dual_feasibility_tolerance=1e-10,
)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


class NumericError(RuntimeError):
    """Raised when an iterative numeric procedure fails to converge."""


def _as_zeta(zeta) -> float:
    z = float(zeta)
    if not (0.0 < z <= 1.0):
        raise ValueError(f"zeta must lie in (0, 1], got {z}")
    return z


# ---------------------------------------------------------------------------
# exact zeta == 1 route: weighted L1 isotonic regression, batched over fibers
# ---------------------------------------------------------------------------

# Entries evaluated per block: thresholds x padded atoms here, levels x m**2
# for the m-crossing matchings of ``transport_norms``.  2**17 float64
# entries keep each temporary near 1 MB whatever the number of fibers.
_CHAIN_BLOCK_ENTRIES = 2**17


def _segmented_cumsum(w: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Prefix sums restarting where ``col`` (index within the segment) is 0.

    A log-step scan: each pass adds the partial sum 2**k places back when
    it lies in the same segment, so every sum involves its own segment
    only and its rounding scales with that segment's weights.
    """
    f = w.copy()
    longest = int(col.max()) + 1 if col.size else 0
    k = 1
    while k < longest:
        f[k:] += np.where(col[k:] >= k, f[:-k], 0.0)
        k *= 2
    return f


def chain_norms(cell, pos, w, ncell: int) -> np.ndarray:
    """zeta = 1 dual norms of many atomic measures at once.

    Atom i lies in measure ``cell[i]`` (0 <= cell < ncell) at ``pos[i]``
    with weight ``w[i]``; atoms of one measure may come in any order and
    may coincide (their weights add).  Returns the ``ncell`` norms, 0 for
    a measure without atoms.  Evaluates the closed form of the module
    docstring: with F the cumulative weights, M the mass (the sign of the
    measure flipped so that M >= 0) and d_i the gap to the next atom,

        M + sum_i d_i dist(F_i, [0, M]) + integral over [0, M] of
            min over k of [B(t) + P_k(t)] dt,

    B(t) = sum_i d_i [F_i <= t], P_k(t) = sum_{i<k} d_i ([F_i > t] - [F_i <= t]).
    The integrand is constant between the F_i lying in (0, M), and is
    evaluated at 0 and at each of them, ``_CHAIN_BLOCK_ENTRIES`` entries at
    a time; the result does not depend on the block size.
    """
    cell, pos, w = canonicalize_segments(
        np.asarray(cell, dtype=np.intp), np.asarray(pos, dtype=float), np.asarray(w, dtype=float)
    )
    out = np.zeros(ncell)
    if cell.size == 0:
        return out
    n = cell.size

    # segments: the atoms of one measure, in position order
    seg_start = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    seg_len = np.diff(np.r_[seg_start, n])
    seg_of = np.repeat(np.arange(seg_start.size), seg_len)
    col = np.arange(n) - seg_start[seg_of]
    f = _segmented_cumsum(w, col)
    mass = f[seg_start + seg_len - 1]
    sign = np.where(mass < 0, -1.0, 1.0)
    f *= sign[seg_of]
    mass = np.abs(mass)
    d = np.r_[np.where(cell[1:] == cell[:-1], np.diff(pos), 0.0), 0.0]

    m_atom = mass[seg_of]
    outside = np.maximum(f - m_atom, 0.0) + np.maximum(-f, 0.0)
    value = mass + np.bincount(seg_of, weights=d * outside, minlength=seg_start.size)

    # breakpoints of the integrand: 0 for each measure with M > 0, and
    # every F_i strictly inside (0, M)
    inner = np.flatnonzero((f > 0.0) & (f < m_atom))
    has_mass = np.flatnonzero(mass > 0.0)
    t_seg = np.r_[has_mass, seg_of[inner]]
    t = np.r_[np.zeros(has_mass.size), f[inner]]
    if t.size:
        o = _lex_order(t_seg, t)
        t_seg, t = t_seg[o], t[o]
        t_next = np.r_[t[1:], 0.0]
        last = np.r_[t_seg[1:] != t_seg[:-1], True]
        t_next[last] = mass[t_seg[last]]
        level = np.empty(t.size)
        width = max(1, _CHAIN_BLOCK_ENTRIES // int(seg_len.max()))
        for lo in range(0, t.size, width):
            rows = slice(lo, lo + width)
            s = t_seg[rows]
            pad = np.arange(int(seg_len[s].max()))
            valid = pad < seg_len[s][:, None]
            idx = np.where(valid, seg_start[s][:, None] + pad, 0)
            dp = np.where(valid, d[idx], 0.0)
            below = f[idx] <= t[rows][:, None]
            b = np.cumsum(np.where(below, dp, 0.0), axis=1)[:, -1]
            p = np.cumsum(np.where(below, -dp, dp), axis=1).min(axis=1)
            level[rows] = b + np.minimum(p, 0.0)
        value += np.bincount(
            t_seg, weights=level * (t_next - t), minlength=seg_start.size
        )
    out[cell[seg_start]] = value
    return out


# ---------------------------------------------------------------------------
# zeta < 1 route: non-crossing matchings level by level, batched over fibers
# ---------------------------------------------------------------------------


def _matching_costs(x: np.ndarray, z: float) -> np.ndarray:
    """Cheapest non-crossing perfect matching of each row of ``x``.

    Row l holds the crossings of one level in position order (an even
    count, alternating in direction), the sink at +inf last when it has
    one; a pair (a, j) with j - a odd costs min(|x_j - x_a|**z, 1), so any
    crossing pays 1 to the sink.  The interval DP of the module docstring,

        C(a, b) = min over odd j - a of c(a, j) + C(a+1, j-1) + C(j+1, b),

    runs over the rows and the start index a at once, one interval length
    at a time, with ``cl[L // 2][:, a]`` = C(a, a + L - 1) for even L and
    ``arc[o // 2][:, a]`` = c(a, a + o) + C(a + 1, a + o - 1) for odd o, the
    arc from a to a + o with everything inside it matched.  The terms of
    one length, odd offset o against level and start, are a strided view
    of ``cl`` (the row L = length - 1 - o read from column a + o + 1) added
    to a slice of ``arc``, and one ``np.min`` over the offsets takes their
    minimum.
    """
    nl, m = x.shape
    cl = np.zeros((m // 2 + 1, nl, m + 1))
    arc = np.zeros((m // 2, nl, m))
    s_len, s_lev, s_col = cl.strides
    for half in range(1, m // 2 + 1):
        length = 2 * half
        o = length - 1
        na = m - length + 1
        arc[half - 1, :, : m - o] = (
            np.minimum((x[:, o:] - x[:, :-o]) ** z, 1.0) + cl[half - 1, :, 1 : m - o + 1]
        )
        # entry (k, l, a) is cl[half - 1 - k][l, a + 2 + 2 k], for the offset o = 2 k + 1
        inner = np.lib.stride_tricks.as_strided(
            cl[half - 1, :, 2:], shape=(half, nl, na),
            strides=(2 * s_col - s_len, s_lev, s_col), writeable=False,
        )
        np.min(arc[:half, :, :na] + inner, axis=0, out=cl[half, :, :na])
    return cl[m // 2, :, 0]


def transport_norms(seg, pos, w, k: int, zeta) -> np.ndarray:
    """zeta-Holder dual norms of many atomic measures at once, any zeta.

    Takes the flat layout of ``chain_norms``: atom i lies in measure
    ``seg[i]`` (0 <= seg < k) at ``pos[i]`` in [0, 1] with weight
    ``w[i]``, in any order, coincident atoms adding.  Returns the ``k``
    norms, 0 for a measure without atoms.  Evaluates the level sum of the
    module docstring: the levels between consecutive values of
    F = (0, F_1, ..., F_n) of every measure are grouped by their count m of
    crossings, and each group's matchings are solved together by
    ``_matching_costs``, about ``_CHAIN_BLOCK_ENTRIES // m**2`` levels at a
    time (its arrays hold about half that many entries each); the result
    does not depend on the block size.
    """
    z = _as_zeta(zeta)
    seg, pos, w = canonicalize_segments(
        np.asarray(seg, dtype=np.intp), np.asarray(pos, dtype=float),
        np.asarray(w, dtype=float),
    )
    out = np.zeros(k)
    n = seg.size
    if n == 0:
        return out
    seg_start = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    seg_len = np.diff(np.r_[seg_start, n])
    nseg = seg_start.size
    seg_of = np.repeat(np.arange(nseg), seg_len)
    f = _segmented_cumsum(w, np.arange(n) - seg_start[seg_of])
    f *= np.where(f[seg_start + seg_len - 1] < 0, -1.0, 1.0)[seg_of]

    # breakpoints t: 0 and every F_i of each measure, sorted, without repeats;
    # level u is [t[u], t[u + 1]), and rank gives each value's index in t
    b_seg = np.r_[np.arange(nseg), seg_of]
    b_val = np.r_[np.zeros(nseg), f]
    o = _lex_order(b_seg, b_val)
    b_seg, b_val = b_seg[o], b_val[o]
    new = np.r_[True, (b_seg[1:] != b_seg[:-1]) | (b_val[1:] != b_val[:-1])]
    rank = np.empty(o.size, dtype=np.intp)
    rank[o] = np.cumsum(new) - 1
    t, t_seg = b_val[new], b_seg[new]
    after = rank[nseg:]
    before = np.r_[0, after[:-1]]
    before[seg_start] = rank[:nseg]
    # atom i crosses the levels lo_i <= u < hi_i, the span of its jump in F;
    # xs lists the crossings level by level, each level's in position order
    lo = np.minimum(before, after)
    span = np.maximum(before, after) - lo
    lev = np.repeat(lo - (np.cumsum(span) - span), span) + np.arange(span.sum())
    xs = pos[np.repeat(np.arange(n), span)[np.argsort(lev, kind="stable")]]
    count = np.bincount(lev, minlength=t.size)
    start = np.cumsum(count) - count

    # an odd count means 0 <= t < M, one more crossing up than down: the
    # sink, at +inf, is appended to those levels
    cost = np.zeros(t.size)
    # the levels with count m are by_count[bounds[m] : bounds[m + 1]]
    by_count = np.argsort(count, kind="stable")
    bounds = np.searchsorted(count[by_count], np.arange(count.max() + 2))
    for m in np.flatnonzero(np.diff(bounds)[1:]) + 1:
        levels = by_count[bounds[m] : bounds[m + 1]]
        cols = m + m % 2
        step = max(1, _CHAIN_BLOCK_ENTRIES // (cols * cols))
        for b in range(0, levels.size, step):
            lv = levels[b : b + step]
            x = np.full((lv.size, cols), np.inf)
            x[:, :m] = xs[start[lv][:, None] + np.arange(m)]
            cost[lv] = _matching_costs(x, z)
    width = np.r_[np.diff(t), 0.0]
    out[seg[seg_start]] = np.bincount(t_seg, weights=cost * width, minlength=nseg)
    return out


def dual_norms(seg, pos, w, k: int, zeta) -> np.ndarray:
    """Exact dual norms of many atomic measures at once.

    Takes the flat layout of ``chain_norms``: atom i lies in measure
    ``seg[i]`` (0 <= seg < k) at ``pos[i]`` with weight ``w[i]``, in any
    order, coincident atoms adding.  Returns the ``k`` norms, 0 for a
    measure without atoms: the isotonic closed form ``chain_norms`` at
    zeta = 1, the level matchings of ``transport_norms`` at zeta < 1.
    """
    z = _as_zeta(zeta)
    return chain_norms(seg, pos, w, k) if z == 1.0 else transport_norms(seg, pos, w, k, z)


def dual_norm(mu: AtomicSignedMeasure, zeta=1.0) -> float:
    """||mu||_o = sup { integral of g d(mu) : |g|_inf <= 1, H_zeta(g) <= 1 }.

    The one-measure case of ``dual_norms``, exact by one of two routes,
    neither an LP: at zeta = 1 the isotonic closed form of ``chain_norms``,
    at zeta < 1 the level matchings of ``transport_norms``.  The zero
    measure gives 0.
    ``_dual_norm_lp`` gives the same value, with a witness, by the
    all-pairs LP.
    """
    one = np.zeros(mu.n_atoms, dtype=np.intp)
    return float(dual_norms(one, mu.positions, mu.weights, 1, zeta)[0])


# The benchmark reads ``_flat_chain is _flat_chain_kernel`` for its backend
# line and wraps ``_flat_chain`` by name; both names stay bound to the
# one-fiber entry so that those reads resolve (the backend reads "python").
_flat_chain = _flat_chain_kernel = dual_norm


def distance_value(mu: AtomicSignedMeasure, nu: AtomicSignedMeasure, zeta=1.0) -> float:
    """Dual distance between two measures: ``dual_norm(mu - nu, zeta)``."""
    return dual_norm(mu - nu, zeta)


def _dual_norm_lp(mu: AtomicSignedMeasure, zeta=1.0):
    """The dual norm by the all-pairs LP of the module docstring: the oracle.

    Returns ``(value, witness)``, the witness an optimal g as (position,
    g-value) pairs on the atoms of the canonicalized mu: ``(0.0, [])`` for
    the zero measure, ``(|w|, [(p, sign w)])`` for a single atom.  The
    optimum is exact within the solver tolerance 1e-9; infeasibility cannot
    occur (g = 0 is feasible), and solver non-convergence raises
    NumericError with the iteration count.
    """
    z = _as_zeta(zeta)
    mu = canonicalize(mu)
    pos = mu.positions
    w = mu.weights
    n = pos.size
    if n == 0:
        return 0.0, []
    if n == 1:
        return abs(float(w[0])), [(float(pos[0]), float(np.sign(w[0])))]
    ii, jj = np.triu_indices(n, k=1)
    d = np.abs(pos[ii] - pos[jj]) ** z
    m = ii.size
    rows = np.repeat(np.arange(2 * m), 2)
    cols = np.empty(4 * m, dtype=np.int64)
    vals = np.empty(4 * m)
    cols[0::4], cols[1::4], cols[2::4], cols[3::4] = ii, jj, ii, jj
    vals[0::4], vals[1::4], vals[2::4], vals[3::4] = 1.0, -1.0, -1.0, 1.0
    from scipy.sparse import csr_matrix

    a_ub = csr_matrix((vals, (rows, cols)), shape=(2 * m, n))
    res = linprog(
        -w,
        A_ub=a_ub,
        b_ub=np.repeat(d, 2),
        bounds=(-1.0, 1.0),
        method="highs-ds",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise NumericError(
            f"dual-norm LP did not converge (status {res.status}, "
            f"{res.nit} iterations): {res.message}"
        )
    value = float(-res.fun)
    witness = [(float(p), float(g)) for p, g in zip(pos, res.x)]
    return value, witness


def lower_bound_sample(
    mu: AtomicSignedMeasure, zeta=1.0, trials: int = 100, seed: int = 0
) -> float:
    """Independent lower bound on the dual norm from sampled test functions.

    Generates feasible g by clipping random Holder envelopes
    g(x) = min_j (v_j + |x - x_j|**zeta) to [-1, 1]; the envelope of any
    values is zeta-Holder with constant 1 and clipping preserves both
    bounds, so every trial value is a certified lower bound.  The constant
    functions +-1 are always tried deterministically, hence probabilities
    report exactly 1.
    """
    z = _as_zeta(zeta)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mu = canonicalize(mu)
    if mu.n_atoms == 0:
        return 0.0
    pos = mu.positions
    w = mu.weights
    best = max(float(w.sum()), float(-w.sum()))  # g = +1 and g = -1
    rng = np.random.default_rng(seed)
    n = pos.size
    gaps = np.abs(pos[:, None] - pos[None, :]) ** z
    # the sign pattern of the weights is the natural greedy anchor choice
    candidates = [np.sign(w)]
    for _ in range(trials):
        k = int(rng.integers(1, n + 1))
        anchors = rng.integers(0, n, size=k)
        v = rng.uniform(-1.0, 1.0, size=k)
        g = np.min(v[None, :] + gaps[:, anchors], axis=1)
        candidates.append(g)
    for g in candidates:
        g = (g[None, :] + gaps).min(axis=1)
        g = np.clip(g, -1.0, 1.0)
        best = max(best, float(np.dot(w, g)))
    return best
