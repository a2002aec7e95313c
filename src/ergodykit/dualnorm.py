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

At zeta < 1 ``transport_norms`` solves a smaller LP, for many measures at
once.  For 0 < zeta <= 1 the cost c(x, y) = |x - y|**zeta is a metric, and
the LP above is the Kantorovich dual of a transport problem: move the
positive part of mu onto the negative part at cost c per unit, and create
or remove mass at cost 1 per unit (the bounds |g| <= 1).  Its dual needs
only the cross-sign rows

    g_i - g_j <= c(x_i, x_j)   for i a positive atom and j a negative atom,

plus |g| <= 1.  The other rows are implied: since c obeys the triangle
inequality, shipping mass through a third atom never beats shipping it
directly, so a transshipment row (same-sign, or negative to positive)
never binds.  Concretely, an optimal g of the cross-sign LP becomes
feasible for all pairs, at no loss, as the envelope
h(x) = max(-1, min(1, min_j (g_j + c(x, x_j)))) over the negative atoms j:
h is zeta-Holder with constant 1, h >= g on the positive atoms and h <= g
on the negative ones.  A measure whose atoms share one sign needs no LP at
all (g = sign(w)).  The cross-sign LP has n_+ n_- rows against the
n(n - 1) of the all-pairs form, about 4x fewer.

scipy (HiGHS) is needed only by these LPs, so ``linprog`` below imports
it on its first call: importing ``scipy.optimize`` and ``scipy.sparse``
costs about 0.6 s on a 2-vCPU Xeon VM, most of a zeta = 1 run, which
needs no LP at all.  The module-level ``linprog`` is also the one name
the tests and the benchmark wrap to count LP solves.
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

SOLVER_TOL = 1e-9

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

# Thresholds x padded atoms evaluated per block; 2**17 float64 entries keep
# each temporary near 1 MB whatever the number of fibers.
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
    cell = np.asarray(cell, dtype=np.intp)
    pos = np.asarray(pos, dtype=float)
    w = np.asarray(w, dtype=float)
    out = np.zeros(ncell)
    if cell.size == 0:
        return out
    order = _lex_order(cell, pos)
    cell, pos, w = cell[order], pos[order], w[order]
    first = np.flatnonzero(np.r_[True, (cell[1:] != cell[:-1]) | (pos[1:] != pos[:-1])])
    cell, pos, w = cell[first], pos[first], np.add.reduceat(w, first)
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
# zeta < 1 route: cross-sign transport LPs, batched over fibers
# ---------------------------------------------------------------------------

# Cross-sign rows per LP.  Whole measures are grouped in order up to this
# many rows; a measure with more rows than this is solved alone.  The cap
# bounds the memory of one solve, not its result.
_LP_BLOCK_ROWS = 4096


def _transport_block(seg, pos, w, z: float) -> np.ndarray:
    """Optimal g on the atoms of several measures, sorted by measure, with
    one row g_i - g_j <= |x_i - x_j|**z for every positive atom i and
    negative atom j of the same measure."""
    pi, ni = np.flatnonzero(w > 0), np.flatnonzero(w < 0)
    seg = seg - seg[0]
    n_neg = np.bincount(seg[ni], minlength=int(seg[-1]) + 1)
    # positive atom ii[r] meets, in turn, every negative atom jj[r] of its measure
    rep = n_neg[seg[pi]]
    first_neg = (np.cumsum(n_neg) - n_neg)[seg[pi]]
    ii = np.repeat(np.arange(pi.size), rep)
    jj = np.arange(ii.size) + np.repeat(first_neg - (np.cumsum(rep) - rep), rep)
    m = ii.size
    from scipy.sparse import csr_matrix

    a_ub = csr_matrix(
        (
            np.tile([1.0, -1.0], m),
            (np.repeat(np.arange(m), 2), np.column_stack([ii, pi.size + jj]).ravel()),
        ),
        shape=(m, w.size),
    )
    res = linprog(
        -np.r_[w[pi], w[ni]],
        A_ub=a_ub,
        b_ub=np.abs(pos[pi[ii]] - pos[ni[jj]]) ** z,
        bounds=(-1.0, 1.0),
        method="highs-ds",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise NumericError(
            f"transport LP did not converge (status {res.status}, "
            f"{res.nit} iterations): {res.message}"
        )
    g = np.empty(w.size)
    g[pi], g[ni] = res.x[: pi.size], res.x[pi.size :]
    return g


def transport_norms(seg, pos, w, k: int, zeta) -> np.ndarray:
    """zeta-Holder dual norms of many atomic measures at once, any zeta.

    Takes the flat layout of ``chain_norms``: atom i lies in measure
    ``seg[i]`` (0 <= seg < k) at ``pos[i]`` with weight ``w[i]``, in any
    order, coincident atoms adding.  Returns the ``k`` norms, 0 for a
    measure without atoms.  Solves the cross-sign transport form of the
    module docstring: a measure with no positive-negative pair has
    g = sign(w); the others are grouped in order into block-diagonal LPs
    of at most ``_LP_BLOCK_ROWS`` rows each (a larger measure alone), and
    each norm is read back as the sum of w * g over its atoms.
    """
    z = _as_zeta(zeta)
    seg, pos, w = canonicalize_segments(
        np.asarray(seg, dtype=np.intp), np.asarray(pos, dtype=float),
        np.asarray(w, dtype=float),
    )
    g = np.sign(w)
    rows = np.bincount(seg[w > 0], minlength=k) * np.bincount(seg[w < 0], minlength=k)
    lp = np.flatnonzero(rows)
    # next-fit: a measure that would overflow the open block starts the next
    cuts, size = [], _LP_BLOCK_ROWS
    for t, r in enumerate(rows[lp].tolist()):
        if size + r > _LP_BLOCK_ROWS:
            cuts.append(t)
            size = 0
        size += r
    off = np.searchsorted(seg, np.arange(k + 1))
    for a, b in zip(cuts, cuts[1:] + [lp.size]):
        lo, hi = off[lp[a]], off[lp[b - 1] + 1]
        sel = lo + np.flatnonzero(rows[seg[lo:hi]] > 0)
        g[sel] = _transport_block(seg[sel], pos[sel], w[sel], z)
    return np.bincount(seg, weights=w * g, minlength=k)


def dual_norms(seg, pos, w, k: int, zeta) -> np.ndarray:
    """Exact dual norms of many atomic measures at once.

    Takes the flat layout of ``chain_norms``: atom i lies in measure
    ``seg[i]`` (0 <= seg < k) at ``pos[i]`` with weight ``w[i]``, in any
    order, coincident atoms adding.  Returns the ``k`` norms, 0 for a
    measure without atoms: the isotonic closed form ``chain_norms`` at
    zeta = 1, the cross-sign transport LPs of ``transport_norms`` below.
    """
    z = _as_zeta(zeta)
    return chain_norms(seg, pos, w, k) if z == 1.0 else transport_norms(seg, pos, w, k, z)


def dual_norm(mu: AtomicSignedMeasure, zeta=1.0) -> float:
    """||mu||_o = sup { integral of g d(mu) : |g|_inf <= 1, H_zeta(g) <= 1 }.

    The one-measure case of ``dual_norms``, exact by one of two routes:
    at zeta = 1 the isotonic closed form of ``chain_norms`` (no LP), at
    zeta < 1 the cross-sign transport LP of ``transport_norms`` (no LP
    either when the atoms share one sign).  The zero measure gives 0.
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
