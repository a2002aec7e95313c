"""Disintegrated measures on Sigma = [0,1] x K and their norms.

A measure is stored as one atomic fiber measure per base cell, attached
at the cell midpoint, with the reference masses (of either the conformal
measure nu or the invariant measure m) of the cells.  The fiber over cell
j is the restriction mu|_gamma of the measure to that leaf, positive and
signed measures alike; a cell that carries nothing holds the zero
measure.  The marginal density phi1 is not stored: phi1[j] is the mass of
restriction j, computed from its atoms.  All fibers live in one flat
layout (``offsets``, ``positions``, ``weights``), so the operator step and
the norms act on every cell at once.

The four norms:
    L1   = sum_j nu_j * ||restriction_j||_o          (nu-referenced)
    Linf = max over m_j > 0 of ||restriction_j||_o   (m-referenced)
    S1   = |phi1|_zeta + L1,   Sinf = |phi1|_zeta + Linf,
with |phi1|_zeta the discrete Holder norm of the marginal density and
||.||_o the dual norm of the fiber module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TextIO

import numpy as np

from .baserpf import RPFDiscretization, _holder_rows, discrete_holder_constant
from .dualnorm import _BOUND_SLACK, _as_zeta, _jensen_bounds, dual_norms, norm_bounds
from .measures import AtomicSignedMeasure, _checked_positions, canonicalize_segments

# Nothing here calls the one-fiber distance any more; the benchmark's tracer
# wraps ``disint.distance_value`` by name, so the name stays bound.
from .dualnorm import distance_value  # noqa: F401

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


def _cell_atoms(offsets: np.ndarray, cells: np.ndarray):
    """Indices of the atoms of ``cells``, cell after cell, and the count of each."""
    starts = offsets[cells]
    counts = offsets[cells + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts), counts


def _offsets(cell: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of atoms sorted by cell, cells numbered 0..n-1."""
    off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=n), out=off[1:])
    return off


# The keys ``DisintegratedMeasure.to_dict`` writes, the only ones ``from_dict`` reads.
_DICT_KEYS = frozenset("fibers n normalized phi1 ref_masses reference x zeta".split())

# Atoms (and entries of the per-cell lists) that one write of
# ``DisintegratedMeasure.write_json`` formats: a few MB of text and floats.
_JSON_CHUNK_ATOMS = 2**14


def _json_cell_format(k: int) -> str:
    """The %-format of one fiber of k atoms in the measure's JSON text."""
    if k == 0:
        return "  []"
    return "  [\n" + ",\n".join(["   [\n    %r,\n    %r\n   ]"] * k) + "\n  ]"


def _write_json_floats(fh: TextIO, values: np.ndarray):
    """``values`` as json.dumps(indent=1) writes a list of floats one key deep."""
    if values.size == 0:
        fh.write("[]")
        return
    fh.write("[\n  ")
    for s in range(0, values.size, _JSON_CHUNK_ATOMS):
        chunk = values[s:s + _JSON_CHUNK_ATOMS].tolist()
        if s:
            fh.write(",\n  ")
        fh.write(",\n  ".join(["%r"] * len(chunk)) % tuple(chunk))
    fh.write("\n ]")


@dataclass(frozen=True, eq=False)
class DisintegratedMeasure:
    """Marginal density plus the fiber restriction over each base cell.

    The restrictions of all cells share one CSR layout: the atoms over
    cell j are ``positions[offsets[j]:offsets[j+1]]`` with the weights at
    the same indices, positions strictly increasing within a cell and no
    weight zero.  ``from_atoms`` builds a measure from atoms in any order
    (``from_fibers``, from one AtomicSignedMeasure per cell, calls it), and
    ``fibers`` gives the restrictions back.  The marginal density ``phi1``
    is a property, not a field: phi1[j] is the mass of restriction j, its
    weights summed in atom order, so the two cannot disagree.  The
    serialized form writes ``phi1`` and keeps a ``"normalized"`` key,
    always false, and ``from_dict`` reads no other.  ``==`` and ``hash``
    go by identity.
    """

    x: np.ndarray
    ref_masses: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    reference: str  # "nu" | "m"
    zeta: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        rm = np.asarray(self.ref_masses, dtype=float)
        off = np.asarray(self.offsets)
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if off.ndim != 1 or off.dtype.kind not in "iu":
            raise ValueError("offsets must be a 1-d integer array")
        off = off.astype(np.intp)
        if not (x.size == rm.size == off.size - 1):
            raise ValueError("x, ref_masses and the cells of offsets must have equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(rm))):
            raise ValueError("x and ref_masses must be finite")
        if np.any(rm < 0):
            raise ValueError("ref_masses must be non-negative")
        if self.reference not in ("nu", "m"):
            raise ValueError(f"reference must be 'nu' or 'm', got {self.reference!r}")
        if pos.ndim != 1 or pos.shape != w.shape:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if off[0] != 0 or off[-1] != pos.size or np.any(np.diff(off) < 0):
            raise ValueError("offsets must rise from 0 to the number of atoms")
        pos = _checked_positions(pos, w)
        if np.any(w == 0.0):
            raise ValueError("fiber weights must be non-zero")
        same_cell = np.ones(max(pos.size - 1, 0), dtype=bool)
        bounds = off[1:-1]
        same_cell[bounds[(bounds > 0) & (bounds < pos.size)] - 1] = False
        if np.any(np.diff(pos)[same_cell] <= 0.0):
            raise ValueError("positions must increase strictly within each cell")
        for name, arr in (("x", x), ("ref_masses", rm), ("offsets", off),
                          ("positions", pos), ("weights", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "zeta", _as_zeta(self.zeta))

    @staticmethod
    def from_atoms(x, ref_masses, cell, pos, w, reference, zeta) -> "DisintegratedMeasure":
        """A measure from atoms in any order, atom k over cell ``cell[k]`` of
        the grid ``x`` at ``pos[k]`` with weight ``w[k]``: positions are
        checked and clipped to [0, 1], then ``canonicalize_segments``
        merges, drops and sorts the atoms of every cell.  The marginal
        density is the mass of each cell's atoms; it takes no argument."""
        cell, pos, w = np.asarray(cell, np.intp), np.asarray(pos, float), np.asarray(w, float)
        n = np.size(x)
        if cell.size and cell.max() >= n:
            raise ValueError(f"an atom lies over cell {cell.max()} of a measure of {n} cells")
        cell, pos, w = canonicalize_segments(cell, _checked_positions(pos, w), w)
        return DisintegratedMeasure(
            x=x, ref_masses=ref_masses, offsets=_offsets(cell, n),
            positions=pos, weights=w, reference=reference, zeta=zeta,
        )

    @staticmethod
    def from_fibers(x, ref_masses, fibers, reference, zeta=1.0) -> "DisintegratedMeasure":
        """A measure from one AtomicSignedMeasure per cell (the restriction
        over that cell, whose mass is phi1 there), by ``from_atoms``."""
        fibers = list(fibers)
        counts = np.fromiter((f.n_atoms for f in fibers), dtype=np.intp, count=len(fibers))
        return DisintegratedMeasure.from_atoms(
            x, ref_masses, np.repeat(np.arange(len(fibers)), counts),
            np.concatenate([f.positions for f in fibers] or [np.empty(0)]),
            np.concatenate([f.weights for f in fibers] or [np.empty(0)]),
            reference, zeta,
        )

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def atom_cells(self) -> np.ndarray:
        """The cell of every atom."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    @property
    def phi1(self) -> np.ndarray:
        """The marginal density: each restriction's weights summed in atom order."""
        return np.bincount(self.atom_cells, weights=self.weights, minlength=self.n)

    def fiber(self, j: int) -> AtomicSignedMeasure:
        """The restriction over cell j."""
        a, b = self.offsets[j], self.offsets[j + 1]
        return AtomicSignedMeasure(self.positions[a:b], self.weights[a:b])

    @property
    def fibers(self) -> tuple[AtomicSignedMeasure, ...]:
        """The restriction over every cell, one AtomicSignedMeasure each."""
        return tuple(self.fiber(j) for j in range(self.n))

    def with_atoms(self, cell, pos, w, **changes) -> "DisintegratedMeasure":
        """A copy holding the atoms (cell, pos, w), sorted by cell, with
        other fields replaced as in ``dataclasses.replace``."""
        return replace(
            self, offsets=_offsets(cell, self.n), positions=pos, weights=w, **changes
        )

    def _reweighted(self, factor: np.ndarray, **changes) -> "DisintegratedMeasure":
        # atom weights times a per-atom factor; atoms that become 0 drop
        w = factor * self.weights
        keep = w != 0.0
        return self.with_atoms(
            self.atom_cells[keep], self.positions[keep], w[keep], **changes
        )

    def total_mass(self) -> float:
        return float(np.dot(self.ref_masses, self.phi1))

    def is_positive(self) -> bool:
        return not np.any(self.weights < 0)

    def scaled(self, c: float) -> "DisintegratedMeasure":
        return self._reweighted(c)

    def to_dict(self) -> dict:
        pairs = np.column_stack([self.positions, self.weights]).tolist()
        off = self.offsets.tolist()
        return {
            "n": self.n,
            "reference": self.reference,
            "zeta": self.zeta,
            "normalized": False,
            "x": self.x.tolist(),
            "ref_masses": self.ref_masses.tolist(),
            "phi1": self.phi1.tolist(),
            "fibers": [pairs[a:b] for a, b in zip(off[:-1], off[1:])],
        }

    def write_json(self, fh: TextIO):
        """Write ``json.dumps(self.to_dict(), indent=1, sort_keys=True)``
        and a newline to ``fh``, byte for byte, without building it.

        The text is streamed from the flat arrays, at most
        ``_JSON_CHUNK_ATOMS`` atoms (or one cell) and as many list entries
        at a time.  Every float is finite, so its text is ``float.__repr__``,
        as json writes it; the keys come in sorted order.
        """
        fh.write('{\n "fibers": ')
        if self.n == 0:
            fh.write("[]")
        else:
            fh.write("[\n")
            off = self.offsets
            counts = np.diff(off).tolist()
            formats = {k: _json_cell_format(k) for k in set(counts)}
            start = 0
            while start < self.n:
                # the cells [start, end) hold at most _JSON_CHUNK_ATOMS atoms,
                # or are one cell
                end = int(np.searchsorted(off, off[start] + _JSON_CHUNK_ATOMS, "right")) - 1
                end = max(end, start + 1)
                fmt = ",\n".join([formats[k] for k in counts[start:end]])
                a, b = off[start], off[end]
                pairs = np.column_stack((self.positions[a:b], self.weights[a:b]))
                if start:
                    fh.write(",\n")
                fh.write(fmt % tuple(pairs.ravel().tolist()))
                start = end
            fh.write("\n ]")
        fh.write(',\n "n": %d,\n "normalized": false,\n "phi1": ' % self.n)
        _write_json_floats(fh, self.phi1)
        fh.write(',\n "ref_masses": ')
        _write_json_floats(fh, self.ref_masses)
        fh.write(',\n "reference": %s,\n "x": ' % json.dumps(self.reference))
        _write_json_floats(fh, self.x)
        fh.write(',\n "zeta": %r\n}\n' % self.zeta)

    @staticmethod
    def from_dict(d: dict) -> "DisintegratedMeasure":
        """The measure ``to_dict`` wrote, read straight into the flat layout.

        ``d`` must hold exactly the keys ``to_dict`` writes, with
        ``"normalized"`` false (every fiber stored as a restriction) and
        ``n`` the number of fibers; anything else raises ValueError.  Each
        fiber is a list of [position, weight] pairs, and ``from_atoms``
        builds the measure from all of them.  ``"phi1"`` is not read into
        the measure, whose marginal is the mass of its restrictions; an
        entry that differs from its restriction's mass by more than 1e-9
        times (1 + the restriction's total variation) raises ValueError
        naming the cell.
        """
        missing, unknown = _DICT_KEYS - set(d), set(d) - _DICT_KEYS
        if missing or unknown:
            raise ValueError(f"measure keys missing {sorted(missing)}, unknown {sorted(unknown)}")
        if d["normalized"] is not False:
            raise ValueError(f'"normalized" is {d["normalized"]!r}; only restrictions are read')
        fibers = d["fibers"]
        if d["n"] != len(fibers):
            raise ValueError(f"n = {d['n']!r} for {len(fibers)} fibers")
        counts = np.fromiter((len(f) for f in fibers), dtype=np.intp, count=len(fibers))
        pairs = np.asarray([p for f in fibers for p in f], dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.shape != (counts.sum(), 2):
            raise ValueError("fiber atoms must be [position, weight] pairs")
        dm = DisintegratedMeasure.from_atoms(
            d["x"], d["ref_masses"], np.repeat(np.arange(counts.size), counts),
            pairs[:, 0], pairs[:, 1], d["reference"], d["zeta"],
        )
        phi1, mass = np.asarray(d["phi1"], dtype=float), dm.phi1
        if phi1.shape != mass.shape:
            raise ValueError(f"phi1 has shape {phi1.shape} for {dm.n} cells")
        tv = np.bincount(dm.atom_cells, weights=np.abs(dm.weights), minlength=dm.n)
        bad = np.flatnonzero(~(np.abs(phi1 - mass) <= 1e-9 * (1.0 + tv)))  # NaN too
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"phi1[{j}] = {phi1[j]!r} is not the mass {mass[j]!r} of cell {j}")
        return dm


@dataclass(frozen=True)
class Observable:
    """A function on Sigma with a declared zeta-Holder bound.

    ``fn(x, y)`` must be elementwise in x and y: every caller makes one
    call on paired arrays of base and fiber points (all atoms of a
    measure, or the (time, orbit) arrays of Birkhoff orbits), and a
    result of another shape raises ValueError.
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
            fn=lambda x, y: (
                np.asarray(x, dtype=float) + np.zeros_like(np.asarray(y, dtype=float))
            ),
            zeta=_as_zeta(zeta),
            holder_bound=2.0,
            name="x",
        )


def _elementwise(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn(x, y) for an observable or fiber map ``fn`` on broadcastable
    arrays of base and fiber points, as a float array of their shape.

    Raises ValueError, naming ``fn``, when the result has another shape:
    the callable is not elementwise in x and y.
    """
    out = np.asarray(fn(x, y), dtype=float)
    shape = np.broadcast(x, y).shape
    if out.shape != shape:
        name = getattr(fn, "name", getattr(fn, "__name__", type(fn).__name__))
        raise ValueError(
            f"{name!r} returned shape {out.shape} for points of shape {shape}; "
            "observables and fiber maps must be elementwise in x and y"
        )
    return out


def _gathered(a: DisintegratedMeasure, ia, b=None, ib=None):
    """The atoms of a's restriction over cell ia[k] minus b's over ib[k]
    (a's alone when b is None) as measure k of one flat (segment,
    position, weight) layout, and the number of measures."""
    ia = np.asarray(ia, dtype=np.intp)
    k = ia.size
    idx, counts = _cell_atoms(a.offsets, ia)
    seg = np.repeat(np.arange(k), counts)
    pos = a.positions[idx]
    w = a.weights[idx]
    if b is not None:
        idx_b, counts_b = _cell_atoms(b.offsets, np.asarray(ib, dtype=np.intp))
        seg = np.concatenate([seg, np.repeat(np.arange(k), counts_b)])
        pos = np.concatenate([pos, b.positions[idx_b]])
        w = np.concatenate([w, -b.weights[idx_b]])
    return seg, pos, w, k


def _fiber_norms(z: float, a: DisintegratedMeasure, ia, b=None, ib=None) -> np.ndarray:
    """Dual norms of a's restriction over cell ia[k] minus b's over ib[k]
    (a's alone when b is None).

    The atoms are gathered from the flat layout into one (segment,
    position, weight) array, and all the norms come from one
    ``dual_norms`` call.
    """
    if np.size(ia) == 0:
        return np.zeros(0)
    seg, pos, w, k = _gathered(a, ia, b, ib)
    return dual_norms(seg, pos, w, k, z)


def l1_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    """Integral of the fiber dual norms against nu (one batched call)."""
    if dm.reference != "nu":
        raise ValueError("l1_norm needs a nu-referenced measure; convert first")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(dm.ref_masses > 0)
    return float(np.dot(dm.ref_masses[idx], _fiber_norms(z, dm, idx)))


def linf_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    """Largest fiber dual norm over cells of positive m-mass (``_largest_norms``)."""
    if dm.reference != "m":
        raise ValueError("linf_norm needs an m-referenced measure; convert first")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    return float(_largest_norms(dm, z)[0])


def holder_constant(values: Sequence[float], zeta=1.0, positions=None) -> float:
    """Discrete Holder constant max |v_i - v_j| / |x_i - x_j|**zeta of per-cell values.

    Positions default to the cell midpoints (i + 0.5) / n.  Evaluated by
    ``discrete_holder_constant``: at zeta = 1 neighbouring positions alone
    attain the maximum (exactly, by the mediant inequality on a line), at
    zeta < 1 a block-bound search evaluates only the pairs of points whose
    blocks may hold it, with the all-pairs result bit for bit.  Coincident
    positions with different values give inf, a non-finite value NaN.
    """
    v = np.asarray(values, dtype=float)
    if positions is None:
        positions = (np.arange(v.size) + 0.5) / v.size
    return discrete_holder_constant(np.asarray(positions, dtype=float), v, _as_zeta(zeta))


def _phi1_strong(dm: DisintegratedMeasure, z: float, blocks: int = 1) -> np.ndarray:
    """|phi1|_zeta = H_zeta(phi1) + sup |phi1| of each of ``blocks`` equal
    runs of cells, all on the grid of the first (one sort of it)."""
    n = dm.n // blocks
    phi1 = dm.phi1.reshape(blocks, n)
    return _holder_rows(dm.x[:n], phi1, z) + np.abs(phi1).max(axis=1, initial=0.0)


def s1_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    return float(_phi1_strong(dm, z)[0]) + l1_norm(dm, z)


def _norm_bounds(z: float, a: DisintegratedMeasure, ia, b=None, ib=None):
    """Bounds on the zeta-Holder dual norms of a's restrictions over the
    cells ``ia`` (less b's over the cells ``ib``, by default the same, when
    b is given), and their exact values on demand: ``dualnorm.norm_bounds``
    of the gathered atoms.

    Returns ``(lower, upper, norms)``, with the rounding slack applied;
    ``norms(k)`` gives the exact norms of the measures numbered ``k``, bit
    for bit those of ``_fiber_norms``.
    """
    seg, pos, w, k = _gathered(a, ia, b, ia if ib is None else ib)
    return norm_bounds(seg, pos, w, k, z)


def _largest(bounds, run=0, runs=1, denom=1.0, best=None) -> np.ndarray:
    """The largest exact norm divided by ``denom`` in each of ``runs``
    groups of candidates, from the ``(lower, upper, norms)`` of
    ``_norm_bounds``; candidate k is in group ``run[k]`` (``run`` and
    ``denom`` may be scalars).

    Without ``best`` exact norms are computed in two rounds: in each group,
    first for the candidates of the largest lower and of the largest upper
    bound, then for every other candidate whose upper bound beats the
    group's best quotient; a group without candidates gives 0.  With
    ``best``, one round evaluates the candidates whose upper bound beats
    it, and the result is at least ``best``.  A candidate left out has a
    quotient at most its upper bound over ``denom``, so at most the best,
    and the result is the maximum over every candidate bit for bit (a norm
    does not depend on which others are evaluated with it).
    """
    lower, upper, norms = bounds
    run, denom = np.broadcast_arrays(run, denom, upper)[:2]
    top = np.full(runs, 0.0 if best is None else best)
    upper = upper / denom
    first = np.zeros(upper.size, dtype=bool)
    if best is None:
        for key in (lower / denom, upper):
            # the candidate of the largest key in each group
            order = np.lexsort((-key, run))
            first[order[np.diff(run[order], prepend=-1) != 0]] = True
        cells = np.flatnonzero(first)
        np.maximum.at(top, run[cells], norms(cells) / denom[cells])
    cells = np.flatnonzero((upper > top[run]) & ~first)
    np.maximum.at(top, run[cells], norms(cells) / denom[cells])
    return top


def _largest_norms(dm: DisintegratedMeasure, z: float, blocks: int = 1) -> np.ndarray:
    """The largest fiber dual norm over the cells of positive reference
    mass in each of ``blocks`` equal runs of cells, 0 for a run without
    such a cell (``_largest``)."""
    idx = np.flatnonzero(dm.ref_masses > 0)
    return _largest(_norm_bounds(z, dm, idx), idx // (dm.n // blocks), blocks)


def _sinf_norms(dm: DisintegratedMeasure, blocks: int, zeta=None) -> np.ndarray:
    """Sinf of each of ``blocks`` equal runs of cells, each run read as a
    measure of its own on the grid of the first run.

    The largest fiber norm of each run comes from ``_largest_norms``, and
    each run's value is the one ``sinf_norm`` gives it alone, bit for bit
    (the batched norms and Holder constants keep every fiber and row to
    itself).
    """
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    return _phi1_strong(dm, z, blocks) + _largest_norms(dm, z, blocks)


def sinf_norm(dm: DisintegratedMeasure, zeta=None) -> float:
    return float(_sinf_norms(dm, 1, zeta)[0])


# Gathered atoms per batched norm call of the zeta < 1 Holder constant: the
# pairs hold O(n^2) atoms in all, and this keeps each call's copy of them
# near 20 MB whatever n is.
_PAIR_BLOCK_ATOMS = 2**18


def disintegration_holder(dm: DisintegratedMeasure, zeta=None) -> float:
    """Holder constant of the disintegration path gamma -> mu|_gamma.

    Max over pairs of cells with positive reference mass of the fiber dual
    distance divided by the midpoint distance to the power zeta.  Defined
    for positive measures only.

    At zeta = 1 only cells adjacent in midpoint order are compared, which
    is exact: the dual distance obeys the triangle inequality and midpoint
    distances add along the line, so by the mediant inequality no pair
    beats the better of its two halves.  Those n - 1 distances are one
    batched ``dual_norms`` call.

    At zeta < 1 every pair is first bounded by the Jensen bound
    M + P**(1 - zeta) (D1 - M)**zeta of the ``dualnorm`` module docstring
    (``_jensen_bounds``), with M = |m_a - m_b| and P = min(m_a, m_b) from
    the masses of the two restrictions and D1 the sum of the zeta = 1
    distances of the neighbours in midpoint order between them (the
    triangle inequality; n - 1 ``dual_norms`` distances in all).  The pair
    of largest bound quotient gets its exact distance; the others whose
    bound beats the best found are taken by decreasing bound, one block of
    about ``_PAIR_BLOCK_ATOMS`` gathered atoms per ``_largest`` call (whose
    own bound takes D1 as the pair's zeta = 1 distance), until a block's
    top bound does not.  The result is the all-pairs maximum bit for bit.
    Each norm call's memory is bounded, but the first bounds are held for
    all n (n - 1) / 2 pairs at once, so memory grows as n**2.
    """
    if not dm.is_positive():
        raise ValueError("disintegration Holder constant is defined for positive measures")
    z = dm.zeta if zeta is None else _as_zeta(zeta)
    idx = np.flatnonzero(dm.ref_masses > 0)
    if z == 1.0:
        idx = idx[np.argsort(dm.x[idx], kind="stable")]
        dist = _fiber_norms(z, dm, idx[:-1], dm, idx[1:])
        return float((dist / np.diff(dm.x[idx])).max(initial=0.0))
    ia, ib = np.triu_indices(idx.size, k=1)
    if ia.size == 0:
        return 0.0
    x, mass, size = dm.x[idx], dm.phi1[idx], np.diff(dm.offsets)[idx]

    def blocks(pairs):
        # ``pairs`` in runs of about _PAIR_BLOCK_ATOMS gathered atoms
        ends = np.cumsum(size[ia[pairs]] + size[ib[pairs]])
        total = int(ends[-1]) if ends.size else 0
        return np.split(pairs, np.searchsorted(ends, np.arange(_PAIR_BLOCK_ATOMS, total,
                                                               _PAIR_BLOCK_ATOMS)))

    # s[k] sums the zeta = 1 distances of neighbours in midpoint order up to
    # cell idx[k], so |s[b] - s[a]| bounds the zeta = 1 distance of the pair
    # (a, b); the slack covers the rounding of each distance and of the sums
    order = np.argsort(x, kind="stable")
    s = np.zeros(idx.size)
    s[order[1:]] = np.cumsum(_fiber_norms(1.0, dm, idx[order[:-1]], dm, idx[order[1:]]))
    s_slack = _BOUND_SLACK * (s.max() + 2.0 * mass.sum())
    ub = np.empty(ia.size)
    for b in blocks(np.arange(ia.size)):
        p, q = ia[b], ib[b]
        d1 = (1.0 + _BOUND_SLACK) * np.abs(s[q] - s[p]) + s_slack
        ub[b] = _jensen_bounds(mass[p], mass[q], d1, z) / np.abs(x[p] - x[q]) ** z
    top = int(np.argmax(ub))
    p, q = ia[top:top + 1], ib[top:top + 1]
    best = float((_fiber_norms(z, dm, idx[p], dm, idx[q]) / np.abs(x[p] - x[q]) ** z)[0])
    live = np.flatnonzero(ub > best)
    live = live[live != top]
    for b in blocks(live[np.argsort(-ub[live], kind="stable")]):
        b = b[ub[b] > best]
        if b.size == 0:
            break
        p, q = ia[b], ib[b]
        denom = np.abs(x[p] - x[q]) ** z
        # no name holds the bounds, so each block's sorted atoms are freed
        # before the next block's are built
        best = float(_largest(_norm_bounds(z, dm, idx[p], dm, idx[q]), denom=denom, best=best)[0])
    return best


def multiply_observable(dm: DisintegratedMeasure, s) -> DisintegratedMeasure:
    """The signed measure s * mu.

    Each restriction has its atoms reweighted by s(x_j, .), evaluated by
    one call of s on every atom, and the new marginal phi1[j] is the mass
    of the reweighted restriction, summed cell by cell in atom order.
    """
    cells = dm.atom_cells
    sv = _elementwise(s, dm.x[cells], dm.positions)
    return dm._reweighted(sv)


def integrate(dm: DisintegratedMeasure, g) -> float:
    """Integral of an observable: sum_j ref_j * <restriction_j, g(x_j, .)>.

    g is called once, on the atoms of the cells of positive reference
    mass; the other cells add nothing, whatever g is there.
    """
    cells = dm.atom_cells
    live = dm.ref_masses[cells] > 0
    cells = cells[live]
    gv = _elementwise(g, dm.x[cells], dm.positions[live])
    per_cell = np.bincount(cells, weights=dm.weights[live] * gv, minlength=dm.n)
    return float(np.dot(dm.ref_masses, per_cell))


def product_measure(
    base_density,
    fiber: AtomicSignedMeasure,
    *,
    rpf: RPFDiscretization,
    reference: str = "m",
    zeta=1.0,
) -> DisintegratedMeasure:
    """Constant-path disintegration: dens[j] times the same probability
    fiber over every cell, its atoms tiled over the cells by ``from_atoms``."""
    if abs(fiber.total_mass() - 1.0) > 1e-10:
        raise ValueError("product_measure expects a probability fiber")
    dens = np.asarray(base_density, dtype=float)
    if dens.ndim == 0:
        dens = np.full(rpf.n, float(dens))
    if dens.shape != (rpf.n,):
        raise ValueError(f"a density of shape {dens.shape} for {rpf.n} cells")
    ref = rpf.nu if reference == "nu" else rpf.m
    return DisintegratedMeasure.from_atoms(
        rpf.x, ref.copy(), np.repeat(np.arange(dens.size), fiber.n_atoms),
        np.tile(fiber.positions, dens.size), (dens.reshape(-1, 1) * fiber.weights).ravel(),
        reference, zeta,
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
    return dm._reweighted(
        factor[dm.atom_cells], ref_masses=ref.copy(), reference=to
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
    return idx, _fiber_norms(z, a, idx, b, idx)


def linf_distance(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta=None) -> float:
    """m-essential sup of the fiber dual distances between two measures.

    Every cell's distance comes from one batched ``dual_norms`` call: the
    isotonic closed form at zeta = 1, the level matchings at zeta < 1.
    Measures on different grids or references raise ValueError.
    """
    return float(_fiber_distances(a, b, zeta)[1].max(initial=0.0))


def l1_distance(a: DisintegratedMeasure, b: DisintegratedMeasure, zeta=None) -> float:
    """nu-average of the fiber dual distances between two measures
    (batched like ``linf_distance``)."""
    idx, dist = _fiber_distances(a, b, zeta)
    return float(np.dot(a.ref_masses[idx], dist))
