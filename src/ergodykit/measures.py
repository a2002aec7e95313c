"""Atomic signed measures on the fiber space K = [0, 1].

Every fiber measure in the engine is a finite weighted sum of Dirac atoms.
Atoms are exact under pushforward by a pointwise map, which is what makes
contracting fiber dynamics computable with zero transport error.  The metric
on K is |x - y|, so diam(K) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "AtomicSignedMeasure",
    "JordanPair",
    "canonicalize",
    "jordan",
    "total_mass",
    "total_variation",
    "pushforward",
    "compress",
    "compress_to_cap",
    "dirac",
    "uniform_atoms",
    "zero_measure",
]

# Images of fiber maps may overshoot [0, 1] by rounding; clamp within this.
_RANGE_SLACK = 1e-12


class MeasureDomainError(ValueError):
    """Raised when atom positions leave the fiber space K = [0, 1]."""


@dataclass(frozen=True)
class AtomicSignedMeasure:
    """A finite signed combination of Dirac atoms on [0, 1].

    ``positions`` and ``weights`` are parallel arrays.  A measure is
    *canonical* when positions are strictly increasing and no weight is
    zero; all constructors here return canonical measures.  Instances are
    immutable and safe to share across threads.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if pos.size and (pos.min() < -_RANGE_SLACK or pos.max() > 1.0 + _RANGE_SLACK):
            bad = pos[(pos < -_RANGE_SLACK) | (pos > 1.0 + _RANGE_SLACK)][0]
            raise MeasureDomainError(f"atom position {bad!r} outside [0, 1]")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(w))):
            raise ValueError("positions and weights must be finite")
        pos = np.clip(pos, 0.0, 1.0)
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    # -- basic queries -------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.positions.size)

    def total_mass(self) -> float:
        return float(self.weights.sum()) if self.weights.size else 0.0

    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum()) if self.weights.size else 0.0

    def is_canonical(self) -> bool:
        if self.positions.size == 0:
            return True
        return bool(np.all(np.diff(self.positions) > 0) and np.all(self.weights != 0))

    def integrate(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of a function against the measure: sum of w * g(pos)."""
        if self.positions.size == 0:
            return 0.0
        return float(np.dot(self.weights, np.asarray(g(self.positions), dtype=float)))

    # -- vector-space arithmetic (results are canonical) ---------------

    def __add__(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        return canonicalize(
            AtomicSignedMeasure(
                np.concatenate([self.positions, other.positions]),
                np.concatenate([self.weights, other.weights]),
            )
        )

    def __sub__(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        return self + (-1.0) * other

    def __mul__(self, c: float) -> "AtomicSignedMeasure":
        if c == 0.0 or self.positions.size == 0:
            return zero_measure()
        return AtomicSignedMeasure(self.positions, c * self.weights)

    __rmul__ = __mul__

    def __neg__(self) -> "AtomicSignedMeasure":
        return (-1.0) * self

    def to_pairs(self) -> list[list[float]]:
        """JSON-friendly [[position, weight], ...] representation."""
        return [[float(p), float(w)] for p, w in zip(self.positions, self.weights)]

    @staticmethod
    def from_pairs(pairs) -> "AtomicSignedMeasure":
        if not pairs:
            return zero_measure()
        arr = np.asarray(pairs, dtype=float)
        return canonicalize(AtomicSignedMeasure(arr[:, 0], arr[:, 1]))


class JordanPair(NamedTuple):
    """Positive and negative parts of a signed measure; supports disjoint."""

    positive: AtomicSignedMeasure
    negative: AtomicSignedMeasure


def zero_measure() -> AtomicSignedMeasure:
    return AtomicSignedMeasure(np.empty(0), np.empty(0))


def dirac(position: float, weight: float = 1.0) -> AtomicSignedMeasure:
    return AtomicSignedMeasure(np.array([position]), np.array([weight]))


def uniform_atoms(n: int) -> AtomicSignedMeasure:
    """Probability measure of n equally weighted atoms at cell midpoints."""
    pos = (np.arange(n) + 0.5) / n
    return AtomicSignedMeasure(pos, np.full(n, 1.0 / n))


def canonicalize(mu: AtomicSignedMeasure) -> AtomicSignedMeasure:
    """Sort atoms, merge coincident positions, drop zero weights.

    Idempotent and measure-preserving: the result represents the same
    signed measure with strictly increasing positions.
    """
    if mu.positions.size == 0:
        return zero_measure()
    order = np.argsort(mu.positions, kind="stable")
    pos = mu.positions[order]
    w = mu.weights[order]
    # merge runs of identical positions by summing weights
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


def jordan(mu: AtomicSignedMeasure) -> JordanPair:
    """Split a canonical measure into its positive and negative parts."""
    pos_mask = mu.weights > 0
    neg_mask = mu.weights < 0
    positive = AtomicSignedMeasure(mu.positions[pos_mask], mu.weights[pos_mask])
    negative = AtomicSignedMeasure(mu.positions[neg_mask], -mu.weights[neg_mask])
    return JordanPair(positive, negative)


def total_mass(mu: AtomicSignedMeasure) -> float:
    return mu.total_mass()


def total_variation(mu: AtomicSignedMeasure) -> float:
    return mu.total_variation()


def pushforward(
    mu: AtomicSignedMeasure, fiber_map: Callable[[np.ndarray], np.ndarray]
) -> AtomicSignedMeasure:
    """Image measure under a pointwise map of K into itself.

    Each atom (p, w) becomes (map(p), w); coincident images merge.  Total
    mass is preserved exactly.  Raises MeasureDomainError naming the first
    offending atom if the image leaves [0, 1].
    """
    if mu.positions.size == 0:
        return zero_measure()
    img = np.asarray(fiber_map(mu.positions), dtype=float)
    out_of_range = (img < -_RANGE_SLACK) | (img > 1.0 + _RANGE_SLACK)
    if out_of_range.any():
        k = int(np.argmax(out_of_range))
        raise MeasureDomainError(
            f"pushforward image {img[k]!r} of atom at {mu.positions[k]!r} "
            "outside [0, 1]"
        )
    return canonicalize(AtomicSignedMeasure(np.clip(img, 0.0, 1.0), mu.weights))


def _cluster_same_sign(pos: np.ndarray, w: np.ndarray, delta: float):
    """Cluster atoms sharing a bucket [k delta, (k+1) delta) to centroids.

    Atoms in a cluster lie within delta of each other and move at most
    delta to the weighted centroid, so the dual-norm drift of the whole
    operation is at most TV * delta**zeta.  Bucket boundaries are anchored
    to the absolute grid (not to the leftmost atom) so that repeated
    compression of slowly moving atom clouds is stable under iteration.
    """
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


def compress(
    mu: AtomicSignedMeasure, delta: float, zeta: float = 1.0
) -> AtomicSignedMeasure:
    """Merge same-sign atoms within distance delta to weighted centroids.

    Keeps the Jordan parts stable; atoms of opposite sign never merge
    (cross-sign cancellation only happens at exactly coincident positions,
    via canonicalize).  Never increases total variation and never changes
    total mass.  The dual-norm perturbation is bounded by
    total_variation(mu) * delta**zeta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if mu.positions.size <= 1:
        return mu
    parts = jordan(mu)
    pieces_pos = []
    pieces_w = []
    for part, sign in ((parts.positive, 1.0), (parts.negative, -1.0)):
        if part.positions.size == 0:
            continue
        p, w = _cluster_same_sign(part.positions, part.weights, delta)
        pieces_pos.append(p)
        pieces_w.append(sign * w)
    if not pieces_pos:
        return zero_measure()
    return canonicalize(
        AtomicSignedMeasure(np.concatenate(pieces_pos), np.concatenate(pieces_w))
    )


def _check_cap(cap: int):
    # atoms of opposite sign never merge, so a signed fiber keeps two atoms
    # at any width: a cap below 2 would double the width forever
    if cap < 2:
        raise ValueError(f"atom cap must be at least 2, got {cap}")


def compress_to_cap(
    mu: AtomicSignedMeasure, delta: float, cap: int, zeta: float = 1.0
) -> tuple[AtomicSignedMeasure, float]:
    """Compress with delta, doubling delta until at most cap atoms remain.

    Returns the compressed measure and the delta actually used; the
    dual-norm drift is at most TV times the sum of width**zeta over the
    widths tried.  Once the width exceeds 1 every atom of one sign shares
    a bucket, so with cap >= 2 the doubling ends there; a cap below 2
    raises ValueError.
    """
    _check_cap(cap)
    out = compress(mu, delta, zeta)
    used = delta
    while out.n_atoms > cap:
        used *= 2.0
        out = compress(out, used, zeta)
    return out, used


# ---------------------------------------------------------------------------
# many fibers at once
# ---------------------------------------------------------------------------
#
# The functions below act on the atoms of many fibers stored side by side:
# atom k lies in fiber ``cell[k]`` at ``pos[k]`` with weight ``w[k]``.  They
# give, fiber by fiber, exactly the arrays that ``canonicalize`` and
# ``compress_to_cap`` give: the sorts are stable and every sum runs over
# the atoms in the same order, so the results agree bit for bit.


def _lex_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The stable order of ``np.lexsort((minor, major))``, found faster.

    numpy orders complex numbers lexicographically, and its stable sort
    runs in near-linear time on the presorted runs that concatenated
    canonical fibers form (about 10x faster than ``lexsort`` on them).
    """
    return np.argsort(major + 1j * minor, kind="stable")


def _group_sums(new_group: np.ndarray, *values: np.ndarray):
    """Sums of each run of ``values`` that ``new_group`` starts, in order.

    ``np.add.at`` adds in index order from 0.0, as ``canonicalize`` and
    ``_cluster_same_sign`` do fiber by fiber.
    """
    idx = np.cumsum(new_group) - 1
    k = int(idx[-1]) + 1
    sums = []
    for v in values:
        s = np.zeros(k)
        np.add.at(s, idx, v)
        sums.append(s)
    return sums


def canonicalize_segments(cell: np.ndarray, pos: np.ndarray, w: np.ndarray):
    """``canonicalize`` of every fiber at once.

    Returns ``(cell, pos, w)`` sorted by (cell, position), with coincident
    atoms of a fiber merged and zero weights dropped.
    """
    if cell.size == 0:
        return cell, pos, w
    order = _lex_order(cell, pos)
    cell, pos, w = cell[order], pos[order], w[order]
    new_group = np.empty(cell.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (cell[1:] != cell[:-1]) | (pos[1:] != pos[:-1])
    if not new_group.all():
        (w,) = _group_sums(new_group, w)
        cell, pos = cell[new_group], pos[new_group]
    keep = w != 0.0
    if not keep.all():
        cell, pos, w = cell[keep], pos[keep], w[keep]
    return cell, pos, w


def _compress_segments(cell, pos, w, width):
    """``compress`` of every fiber at once; fiber c uses bucket width width[c].

    The input is canonical per fiber.  Each fiber's positive part comes
    first and its negative part second, each in position order, and the
    atoms of one (fiber, sign, bucket) merge into their centroid.
    """
    neg = w < 0
    order = np.argsort(2 * cell + neg, kind="stable")
    cell, pos, neg = cell[order], pos[order], neg[order]
    mag = np.abs(w[order])
    buckets = np.floor(pos / width[cell]).astype(np.int64)
    new_group = np.empty(cell.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (
        (cell[1:] != cell[:-1]) | (neg[1:] != neg[:-1]) | (buckets[1:] != buckets[:-1])
    )
    tot_w, tot_pw = _group_sums(new_group, mag, pos * mag)
    centroid = np.clip(tot_pw / tot_w, 0.0, 1.0)
    signed = np.where(neg[new_group], -1.0, 1.0) * tot_w
    return canonicalize_segments(cell[new_group], centroid, signed)


def compress_to_cap_segments(cell, pos, w, ncell: int, delta: float, cap: int):
    """``compress_to_cap`` of every fiber with more than one atom, at once.

    The input is canonical per fiber, fibers numbered 0..ncell-1.  Every
    such fiber is compressed with width delta; a fiber still above the cap
    doubles its own width and compresses again, as ``compress_to_cap``
    does.  Returns ``(cell, pos, w, width)``, the atoms in (cell, position)
    order and the last width of each fiber (delta where it never doubled).
    """
    _check_cap(cap)
    width = np.full(ncell, float(delta))
    redo = np.bincount(cell, minlength=ncell) > 1
    while redo.any():
        sel = redo[cell]
        if sel.all():
            cell, pos, w = _compress_segments(cell, pos, w, width)
        else:
            parts = _compress_segments(cell[sel], pos[sel], w[sel], width)
            rest = ~sel
            cell, pos, w = (np.concatenate([a[rest], b]) for a, b in zip((cell, pos, w), parts))
            order = np.argsort(cell, kind="stable")
            cell, pos, w = cell[order], pos[order], w[order]
        redo = np.bincount(cell, minlength=ncell) > cap
        width[redo] *= 2.0
    return cell, pos, w, width
