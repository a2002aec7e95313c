"""Atomic signed measures on the fiber space K = [0, 1].

Every fiber measure in the engine is a finite weighted sum of Dirac atoms.
Atoms are exact under pushforward by a pointwise map, which is what makes
contracting fiber dynamics computable with zero transport error.  The metric
on K is |x - y|, so diam(K) = 1.
"""

from __future__ import annotations

import random
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

# 64-bit words that ``uniforms`` draws and converts at a time (64 KiB).
_CHUNK_WORDS = 1 << 13


def seeded(seed) -> random.Random:
    """The generator every seeded draw in the package comes from.

    ``random.Random`` would take abs() of a negative seed and hash any
    other object, so a seed that is not a non-negative integer (Python or
    numpy, not bool) raises ValueError instead.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return random.Random(int(seed))


def uniforms(rng: random.Random, shape) -> np.ndarray:
    """Doubles in [0, 1) of the given shape, in C order: the top 53 bits
    of one 64-bit word of ``rng.getrandbits`` each, times 2**-53.

    The words come ``_CHUNK_WORDS`` at a time, so the temporaries stay one
    chunk long.  The generator hands out its 32-bit outputs in order
    whatever the size of the request, so the values are the same bits for
    any chunk size, and k rows drawn at once equal k one-row calls.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _CHUNK_WORDS):
        k = min(_CHUNK_WORDS, flat.size - lo)
        words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
        np.multiply(words >> 11, 2.0**-53, out=flat[lo:lo + k])
    return out


class MeasureDomainError(ValueError):
    """Raised when atom positions leave the fiber space K = [0, 1]."""


def _checked_positions(pos: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Atom positions clipped to [0, 1], after the checks every atom layout makes.

    A position may overshoot [0, 1] by ``_RANGE_SLACK``; one further out
    raises MeasureDomainError naming the first such position, and a
    non-finite position or weight raises ValueError.
    """
    outside = (pos < -_RANGE_SLACK) | (pos > 1.0 + _RANGE_SLACK)
    if outside.any():
        raise MeasureDomainError(f"atom position {pos[outside][0]!r} outside [0, 1]")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(w))):
        raise ValueError("positions and weights must be finite")
    return np.clip(pos, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class AtomicSignedMeasure:
    """A finite signed combination of Dirac atoms on [0, 1].

    ``positions`` and ``weights`` are parallel arrays.  A measure is
    *canonical* when positions are strictly increasing and no weight is
    zero; all constructors here return canonical measures.  Instances are
    immutable and safe to share across threads.  ``==`` and ``hash`` go by
    identity; compare the arrays to compare contents.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        pos = _checked_positions(pos, w)
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
    _, pos, w = canonicalize_segments(_one_cell(mu), mu.positions, mu.weights)
    return AtomicSignedMeasure(pos, w)


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


def _one_cell(mu: AtomicSignedMeasure) -> np.ndarray:
    return np.zeros(mu.n_atoms, dtype=np.intp)


def _check_width(delta: float):
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")


def _check_cap(cap: int):
    # atoms of opposite sign never merge, so a signed fiber keeps two atoms
    # at any width: a cap below 2 would double the width forever
    if cap < 2:
        raise ValueError(f"atom cap must be at least 2, got {cap}")


def compress(mu: AtomicSignedMeasure, delta: float) -> AtomicSignedMeasure:
    """Merge same-sign atoms within distance delta to weighted centroids.

    Atoms sharing a bucket [k delta, (k+1) delta) of the absolute grid
    merge, so each moves at most delta, and repeated compression of a
    slowly moving atom cloud is stable under iteration.  Keeps the Jordan
    parts stable; atoms of opposite sign never merge (cross-sign
    cancellation only happens at exactly coincident positions, via
    canonicalize, which runs first).  Never increases total variation and
    never changes total mass.  The dual-norm perturbation is bounded by
    total_variation(mu) times ``transfer.compression_drift_bound(delta,
    delta, zeta)``, that is delta**zeta.  A measure of at most one atom
    comes back as it is.
    """
    _check_width(delta)
    if mu.n_atoms <= 1:
        return mu
    cell, pos, w = canonicalize_segments(_one_cell(mu), mu.positions, mu.weights)
    if cell.size:
        _, pos, w = _compress_segments(cell, pos, w, np.array([float(delta)]))
    return AtomicSignedMeasure(pos, w)


def compress_to_cap(
    mu: AtomicSignedMeasure, delta: float, cap: int
) -> tuple[AtomicSignedMeasure, float]:
    """Compress with delta, doubling delta until at most cap atoms remain.

    Returns the compressed measure and the delta actually used; the
    dual-norm drift is at most TV times
    ``transfer.compression_drift_bound(delta, used, zeta)``, the sum of
    width**zeta over the widths tried.  Once the width exceeds 1 every
    atom of one sign shares a bucket, so with cap >= 2 the doubling ends
    there; a cap below 2 raises ValueError.  A measure of at most one
    atom comes back as it is.
    """
    _check_cap(cap)
    _check_width(delta)
    if mu.n_atoms <= 1:
        return mu, delta
    cell, pos, w = canonicalize_segments(_one_cell(mu), mu.positions, mu.weights)
    _, pos, w, width = compress_to_cap_segments(cell, pos, w, 1, delta, cap)
    return AtomicSignedMeasure(pos, w), float(width[0])


# ---------------------------------------------------------------------------
# many fibers at once
# ---------------------------------------------------------------------------
#
# The functions below are the one implementation of the atom rules.  They
# act on the atoms of many fibers stored side by side: atom k lies in fiber
# ``cell[k]`` at ``pos[k]`` with weight ``w[k]``.  ``canonicalize``,
# ``compress`` and ``compress_to_cap`` above are their one-cell calls.  The
# sorts are stable and every sum adds a fiber's own atoms in position
# order, so a fiber's result does not depend on the other fibers of the
# call: the operator step and the one-fiber functions agree bit for bit.


def _lex_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The stable order of ``np.lexsort((minor, major))``, found faster.

    numpy orders complex numbers lexicographically, and its stable sort
    runs in near-linear time on the presorted runs that concatenated
    canonical fibers form (about 10x faster than ``lexsort`` on them).
    """
    return np.argsort(major + 1j * minor, kind="stable")


def _group_sums(new_group: np.ndarray, *values: np.ndarray):
    """Sums of each run of ``values`` that ``new_group`` starts, in order.

    ``np.bincount`` adds each run in index order from 0.0, whatever the
    other runs hold, as ``np.add.at`` into zeros would, to the same bits.
    """
    idx = np.cumsum(new_group) - 1
    return [np.bincount(idx, weights=v) for v in values]


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
    _check_width(delta)
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
