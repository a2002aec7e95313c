"""Ready-made base maps, fiber maps and full skew systems with certified
constants.

The gallery covers the standard shapes: a linearly expanding base (any
number of full branches), the Manneville-Pomeau intermittent map with its
neutral fixed point at 0, linearly contracting fibers (possibly
discontinuous across the branch boundary), fibers contracted by a
position-dependent Holder factor, and the solenoid-type fiber
alpha * y + o(x) whose attractor fills a fat invariant band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .baserpf import BaseMap, Branch, ConstructionError, HypothesisReport, Potential, check_hypotheses
from .transfer import FiberMap, SkewSystem

__all__ = [
    "GalleryEntry",
    "manneville_pomeau",
    "linear_expanding",
    "fiber_linear",
    "fiber_discontinuous",
    "fiber_holder",
    "fiber_tsujii",
    "mp_geometric_potential",
    "gallery",
    "gallery_entry",
    "check_example_constants",
]


# ---------------------------------------------------------------------------
# base maps
# ---------------------------------------------------------------------------

def linear_expanding(l: int) -> BaseMap:
    """The l-fold linear covering x -> l x mod 1; uniformly expanding.

    deg = l, every inverse branch has Lipschitz constant exactly 1/l, the
    non-expanding region is empty (q = 0).
    """
    if l < 2:
        raise ConstructionError(f"need at least 2 branches, got l={l}")
    branches = []
    for i in range(l):
        lo, hi = i / l, (i + 1) / l
        branches.append(
            Branch(
                lo=lo,
                hi=hi,
                forward=lambda x, _l=l, _i=i: _l * np.asarray(x, dtype=float) - _i,
                inverse=lambda y, _l=l, _i=i: (np.asarray(y, dtype=float) + _i) / _l,
                lip_bound=1.0 / l,
                meets_region=False,
            )
        )
    return BaseMap(
        branches=tuple(branches),
        sigma=float(l),
        L=1.0 / l,
        q=0,
        region=None,
        name=f"linear{l}",
    )


def _mp_branch0_inverse(alpha_mp: float) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of x (1 + 2**a x**a) on [0, 1/2], by safeguarded Newton.

    The branch is convex and increasing, so Newton from the right endpoint
    decreases monotonically onto the root; iterate to residual 1e-13.
    """
    a = alpha_mp
    c = 2.0**a

    def fwd(x):
        return x * (1.0 + c * x**a)

    def dfwd(x):
        return 1.0 + c * (1.0 + a) * x**a

    def inv(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x = np.full_like(y, 0.5)
        for _ in range(100):
            r = fwd(x) - y
            if np.max(np.abs(r)) <= 1e-14:
                break
            x = np.clip(x - r / dfwd(x), 0.0, 0.5)
        return x

    return inv


def manneville_pomeau(alpha_mp: float) -> BaseMap:
    """The intermittent map with neutral fixed point at 0.

    Branch 0 is x (1 + 2**a x**a) on [0, 1/2] (inverse by root solve),
    branch 1 is 2x - 1 on (1/2, 1].  Constants: deg 2, L = 1 (the inverse
    derivative tends to 1 at the neutral point), sigma = 2, q = 1.
    """
    if not (0.0 < alpha_mp < 1.0):
        raise ConstructionError(f"alpha must lie in (0, 1), got {alpha_mp}")
    a = alpha_mp
    c = 2.0**a
    b0 = Branch(
        lo=0.0,
        hi=0.5,
        forward=lambda x: np.asarray(x, dtype=float) * (1.0 + c * np.asarray(x, dtype=float) ** a),
        inverse=_mp_branch0_inverse(a),
        lip_bound=1.0,
        meets_region=True,
    )
    b1 = Branch(
        lo=0.5,
        hi=1.0,
        forward=lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0,
        inverse=lambda y: (np.asarray(y, dtype=float) + 1.0) / 2.0,
        lip_bound=0.5,
        meets_region=False,
    )
    return BaseMap(
        branches=(b0, b1),
        sigma=2.0,
        L=1.0,
        q=1,
        region=(0.0, 0.5),
        name=f"mp({a:g})",
    )


def mp_geometric_potential(alpha_mp: float, t: float, zeta: float = 0.5) -> Potential:
    """The family -t log |f'| for the intermittent map.

    |f'| ranges over [1, 2 + alpha], so the oscillation is at most
    |t| log(2 + alpha).  The derivative is only alpha-Holder at the neutral
    point, so zeta must not exceed alpha for finite Holder constants.
    """
    a = alpha_mp
    c = 2.0**a

    def dlog(x):
        x = np.asarray(x, dtype=float)
        df = np.where(x <= 0.5, 1.0 + c * (1.0 + a) * x**a, 2.0)
        return -t * np.log(df)

    return Potential.from_callable(dlog, zeta=zeta, name=f"-{t:g}*log|Df|")


# ---------------------------------------------------------------------------
# fiber maps
# ---------------------------------------------------------------------------

def fiber_linear(alpha: float) -> FiberMap:
    """G(x, y) = alpha y; x-independent, so the fiber-Holder constant is 0."""
    if not (0.0 <= alpha < 1.0):
        raise ConstructionError(f"contraction factor must be < 1, got {alpha}")
    def g(x, y, _a=alpha):
        # x only shapes the result, which broadcasts like the other maps
        _, y = np.broadcast_arrays(x, np.asarray(y, dtype=float))
        return _a * y

    return FiberMap(
        fn=g,
        alpha=alpha,
        g_holder=0.0,
        name=f"linear({alpha:g})",
    )


def fiber_discontinuous(alpha1: float, alpha2: float, split: float = 0.5) -> FiberMap:
    """G = alpha1 y left of the split, alpha2 y right of it.

    Discontinuous on the vertical line over the split, yet each branch
    piece is x-independent, so the per-branch Holder constant is 0 and the
    contraction factor is max(alpha1, alpha2).
    """
    if not (0.0 <= alpha1 < 1.0 and 0.0 <= alpha2 < 1.0):
        raise ConstructionError("both contraction factors must be < 1")

    def g(x, y, _a1=alpha1, _a2=alpha2, _s=split):
        return np.where(np.asarray(x) <= _s, _a1, _a2) * np.asarray(y, dtype=float)

    return FiberMap(
        fn=g,
        alpha=max(alpha1, alpha2),
        g_holder=0.0,
        name=f"disc({alpha1:g},{alpha2:g})",
    )


def fiber_holder(
    h1: Callable[[float], float],
    h2: Callable[[float], float],
    alpha: float,
    g_holder: float,
    split: float = 0.5,
) -> FiberMap:
    """G = h1(x) y on the left piece, h2(x) y on the right piece.

    Callers declare alpha >= sup |h_i| and g_holder >= the Holder constant
    of the active piece; both are spot-checked by the sampled invariants.
    h1 and h2 must accept arrays of x and act elementwise: G evaluates
    both on every x it is given and keeps the piece that applies.
    """
    if not (0.0 <= alpha < 1.0):
        raise ConstructionError(f"contraction factor must be < 1, got {alpha}")

    def g(x, y, _h1=h1, _h2=h2, _s=split):
        x = np.asarray(x, dtype=float)
        factor = np.where(x <= _s, _h1(x), _h2(x))
        return factor * np.asarray(y, dtype=float)

    return FiberMap(fn=g, alpha=alpha, g_holder=g_holder, name="holder-pieces")


def fiber_tsujii(alpha: float, o: Callable[[np.ndarray], np.ndarray],
                 o_holder: float | None = None) -> FiberMap:
    """G(x, y) = alpha y + o(x), rescaled onto K = [0, 1].

    The attracting band of alpha y + o(x) is [min o, max o] / (1 - alpha);
    the fiber coordinate is rescaled affinely so that band sits inside
    [0, 1], and the declared Holder constant of o rescales with it.  The
    image is range-checked on a grid at construction.
    """
    if not (0.0 <= alpha < 1.0):
        raise ConstructionError(f"contraction factor must be < 1, got {alpha}")
    grid = np.linspace(0.0, 1.0, 4097)
    with np.errstate(over="ignore", invalid="ignore"):
        ov = np.asarray(o(grid), dtype=float)
        lo = float(ov.min() / (1.0 - alpha))
        hi = float(ov.max() / (1.0 - alpha))
    if not np.all(np.isfinite([lo, hi, hi - lo])):
        raise ConstructionError(f"fiber image band [{lo}, {hi}] is not finite")
    if o_holder is None:
        o_holder = float(np.max(np.abs(np.diff(ov)) / np.diff(grid)))
    if hi - lo < 1e-12:
        scale, shift = 1.0, lo  # constant o: the band is the point lo
    else:
        scale, shift = hi - lo, lo

    def g(x, y, _a=alpha, _o=o, _sc=scale, _sh=shift):
        yy = np.asarray(y, dtype=float) * _sc + _sh  # to original coords
        img = _a * yy + _o(x)
        return (img - _sh) / _sc

    # verify the rescaled image is finite and stays inside [0, 1] on a grid,
    # one broadcast call for all of it; a NaN or inf row has a NaN or
    # infinite min or max and fails, and the first failing x is named
    xs = np.linspace(0.0, 1.0, 257)
    img = g(xs[:, None], np.linspace(0.0, 1.0, 33))
    lo_img, hi_img = np.min(img, axis=1), np.max(img, axis=1)
    fails = ~((lo_img >= -1e-9) & (hi_img <= 1.0 + 1e-9))
    if fails.any():
        i = int(np.argmax(fails))
        raise ConstructionError(
            f"fiber image escapes [0, 1] at x={float(xs[i])!r}: "
            f"[{float(lo_img[i])}, {float(hi_img[i])}]"
        )
    return FiberMap(
        fn=g,
        alpha=alpha,
        g_holder=float(o_holder) / scale,
        name=f"solenoid({alpha:g})",
    )


# ---------------------------------------------------------------------------
# the gallery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalleryEntry:
    """A named system factory with its certified constants."""

    name: str
    factory: Callable[[], SkewSystem]
    constants: dict
    note: str

    def build(self) -> SkewSystem:
        return self.factory()


def _cos_bump(x):
    return (1.0 + np.cos(2.0 * np.pi * np.asarray(x, dtype=float))) / 4.0


def _make_doubling_linear() -> SkewSystem:
    return SkewSystem(
        base=linear_expanding(2),
        fiber=fiber_linear(0.5),
        potential=Potential.constant(0.0, zeta=1.0),
        zeta=1.0,
        name="doubling-linear",
    )


def _make_mp_discontinuous() -> SkewSystem:
    return SkewSystem(
        base=manneville_pomeau(0.5),
        fiber=fiber_discontinuous(0.3, 0.6),
        potential=Potential.constant(0.0, zeta=0.5),
        zeta=0.5,
        name="mp-discontinuous",
    )


def _make_mp_geometric_holder() -> SkewSystem:
    h1 = lambda x: 0.20 + 0.20 * x
    h2 = lambda x: 0.55 - 0.10 * x
    # H_0.5 of a k-Lipschitz function on a length-1/2 interval is k/sqrt(2)
    gh = max(0.20, 0.10) / np.sqrt(2.0)
    return SkewSystem(
        base=manneville_pomeau(0.5),
        fiber=fiber_holder(h1, h2, alpha=0.55, g_holder=float(gh)),
        potential=mp_geometric_potential(0.5, t=0.05, zeta=0.5),
        zeta=0.5,
        name="mp-geometric-holder",
    )


def _make_tsujii() -> SkewSystem:
    return SkewSystem(
        base=linear_expanding(2),
        fiber=fiber_tsujii(0.5, _cos_bump, o_holder=float(np.pi / 2.0)),
        potential=Potential.constant(-np.log(2.0), zeta=1.0),
        zeta=1.0,
        name="tsujii",
    )


_GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        name="doubling-linear",
        factory=_make_doubling_linear,
        constants=dict(deg=2, q=0, sigma=2.0, L=0.5, alpha=0.5, g_holder=0.0, zeta=1.0),
        note="doubling base, zero potential, fiber halved toward 0",
    ),
    GalleryEntry(
        name="mp-discontinuous",
        factory=_make_mp_discontinuous,
        constants=dict(deg=2, q=1, sigma=2.0, L=1.0, alpha=0.6, g_holder=0.0, zeta=0.5),
        note="Manneville-Pomeau base; fiber contraction jumps at the branch boundary",
    ),
    GalleryEntry(
        name="mp-geometric-holder",
        factory=_make_mp_geometric_holder,
        constants=dict(deg=2, q=1, sigma=2.0, L=1.0, alpha=0.55,
                       g_holder=float(0.2 / np.sqrt(2.0)), zeta=0.5),
        note="Manneville-Pomeau base with geometric-family potential; "
             "fiber contracted by a position-dependent Holder factor",
    ),
    GalleryEntry(
        name="tsujii",
        factory=_make_tsujii,
        constants=dict(deg=2, q=0, sigma=2.0, L=0.5, alpha=0.5,
                       g_holder=float(np.pi / 2.0), zeta=1.0),
        note="fat-solenoid family 2x mod 1 with fiber y/2 + (1+cos 2 pi x)/4; "
             "the equilibrium of the geometric potential is the physical measure",
    ),
)


def gallery() -> tuple[GalleryEntry, ...]:
    return _GALLERY


def gallery_entry(name: str) -> GalleryEntry:
    for e in _GALLERY:
        if e.name == name:
            return e
    raise KeyError(f"no gallery entry named {name!r}; have "
                   + ", ".join(e.name for e in _GALLERY))


def check_example_constants(entry: GalleryEntry) -> HypothesisReport:
    """Run the hypothesis checker on a gallery entry's declared constants."""
    sys = entry.build()
    rep = check_hypotheses(sys.base, sys.potential, sys.zeta)
    al = sys.regularity_precondition
    return replace(
        rep, alpha=sys.alpha, g_holder=sys.fiber.g_holder, alpha_l_value=al, alpha_l_ok=al < 1.0
    )
