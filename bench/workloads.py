"""The benchmark's workloads: one ergodykit CLI command each, with its checks.

Every workload runs a fixed number of iterations (``tol = 1e-300`` is never
reached), with atom cap 64 and ``compress_delta = 1e-4``, so the work per
command is fixed.  Each is chosen so that one layer carries most of its
time and other layers almost none (see README.md for the measured shares).

The seed is written into every config, but only ``corr-tsujii-16`` uses it
(spectral-gap trial measures and Birkhoff orbits); the other three
produce the same bytes for every seed.

The checks read the CLI's outputs with the standard library only, so the
parent process never imports numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Operator and Birkhoff correlations must agree within this many standard
# errors for n <= 5.  Six lags are tested on every seed and the batch-means
# standard error runs about 15% low, so at 3 standard errors about one seed
# in twenty fails with nothing wrong; 5 keeps false failures negligible.
CORR_AGREE_STDERR = 5.0


def _load(path: Path):
    return json.loads(path.read_text())


def _restriction_sums(d: dict):
    """Per-cell (reference mass, restriction mass, restriction mean of y)."""
    for ref, phi, fiber in zip(d["ref_masses"], d["phi1"], d["fibers"]):
        scale = phi if d["normalized"] else 1.0
        yield ref, scale * sum(w for _, w in fiber), scale * sum(p * w for p, w in fiber)


def check_eq_tsujii(out: Path) -> list[str]:
    """Mass conserved to 1e-10 and |integral of y - 1/2| <= 2e-3."""
    sums = list(_restriction_sums(_load(out / "equilibrium.json")))
    mass = sum(ref * m for ref, m, _ in sums)
    ybar = sum(ref * my for ref, _, my in sums)
    errs = []
    if abs(mass - 1.0) > 1e-10:
        errs.append(f"mass {mass!r} differs from 1 by more than 1e-10")
    if abs(ybar - 0.5) > 2e-3:
        errs.append(f"integral of y {ybar!r} differs from 1/2 by more than 2e-3")
    return errs


def check_eq_doubling(out: Path) -> list[str]:
    """lambda = 2 and h = 1 to 1e-10; successive distances halve."""
    eig = _load(out / "eigen.json")
    dist = _load(out / "convergence.json")["distances"]
    errs = []
    if abs(eig["lambda"] - 2.0) > 1e-10:
        errs.append(f"lambda {eig['lambda']!r} is not 2")
    if max(abs(h - 1.0) for h in eig["h"]) > 1e-10:
        errs.append("h is not identically 1")
    ratios = [b / a for a, b in zip(dist, dist[1:])]
    if not ratios or max(abs(r - 0.5) for r in ratios) > 1e-10:
        errs.append(f"distance ratios {ratios} are not alpha**zeta = 0.5")
    return errs


def check_reg(out: Path) -> list[str]:
    """satisfied is true and the empirical Holder constant is within the bound."""
    reg = _load(out / "regularity.json")
    errs = []
    if reg["satisfied"] is not True:
        errs.append("regularity bound not satisfied")
    if not reg["empirical_holder"] <= reg["bound"]:
        errs.append(f"empirical_holder {reg['empirical_holder']} > bound {reg['bound']}")
    return errs


def check_corr(out: Path) -> list[str]:
    """Operator and Birkhoff C_n agree for n <= 5; fitted rate <= xi + 0.05."""
    doc = _load(out / "correlations.json")
    tables = {t["method"]: t for t in doc["tables"]}
    op, bk = tables["operator"], tables["birkhoff"]
    errs = []
    for n, a, b, se in zip(op["ns"], op["values"], bk["values"], bk["stderr"]):
        if n <= 5 and abs(a - b) > CORR_AGREE_STDERR * se:
            errs.append(
                f"C_{n}: operator {a:.6g} vs birkhoff {b:.6g} "
                f"> {CORR_AGREE_STDERR:g} stderr ({se:.3g})"
            )
    xi = doc["gap"]["xi"]
    rate = op.get("fit", {}).get("rate")
    if rate is None or rate > xi + 0.05:
        errs.append(f"operator rate {rate} exceeds xi + 0.05 = {xi + 0.05:.4f}")
    return errs


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    system: str  # body of the [system] section
    base_cells: int
    max_iter: int
    outputs: tuple[str, ...]  # deterministic output files
    check: Callable[[Path], list[str]]
    run_extra: str = ""  # extra [run] keys

    def config(self, seed: int) -> str:
        return (
            f"[system]\n{self.system}\n\n"
            f"[discretization]\nbase_cells = {self.base_cells}\n"
            "fiber_atom_cap = 64\ncompress_delta = 1e-4\n\n"
            f"[run]\nmax_iter = {self.max_iter}\ntol = 1e-300\nseed = {seed}\n"
            f"{self.run_extra}"
        )


_EQ_OUTPUTS = ("equilibrium.json", "eigen.json", "convergence.json", "convergence.csv")

WORKLOADS = {
    w.name: w
    for w in (
        # Fibers fill to ~30 atoms per cell by step 7; from there every
        # step is one operator application plus one linf_distance sweep.
        Workload(
            name="eq-tsujii-128",
            command="equilibrium",
            system="gallery = tsujii",
            base_cells=128,
            max_iter=14,
            outputs=_EQ_OUTPUTS,
            check=check_eq_tsujii,
        ),
        # Fibers collapse to one atom per cell; kernel decay's O(n^2)
        # all-pairs Holder constant is nearly all of the time.
        Workload(
            name="eq-doubling-512",
            command="equilibrium",
            system="gallery = doubling-linear",
            base_cells=512,
            max_iter=6,
            outputs=_EQ_OUTPUTS,
            check=check_eq_doubling,
        ),
        # zeta = 0.5 with multi-atom fibers: the only path that reaches the
        # all-pairs HiGHS LP (per-cell distances and disintegration_holder).
        # The gallery's zeta = 0.5 entries collapse to one atom per cell.
        Workload(
            name="reg-holder05-12",
            command="regularity",
            system="base = linear\nl = 2\nfiber = tsujii\nalpha = 0.5\nzeta = 0.5",
            base_cells=12,
            max_iter=6,
            outputs=("regularity.json",),
            check=check_reg,
        ),
        # Signed zero-average measures through the same operator (restriction
        # storage, cap-doubling compression), plus the Birkhoff orbit loop.
        Workload(
            name="corr-tsujii-16",
            command="correlations",
            system="gallery = tsujii",
            base_cells=16,
            max_iter=12,
            outputs=("correlations.json", "correlations.csv"),
            check=check_corr,
            run_extra="correlation_n = 10\nphysical = true\nmc_orbits = 16\n",
        ),
    )
}
