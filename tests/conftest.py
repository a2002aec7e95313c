from unittest import mock

import numpy as np
import pytest

import ergodykit as ek
from ergodykit import dualnorm
from ergodykit.measures import AtomicSignedMeasure, canonicalize


def counting_linprog(rows):
    """Patch ``dualnorm.linprog`` to append the row count of each solve to ``rows``."""
    real = dualnorm.linprog

    def counted(*args, **kwargs):
        rows.append(kwargs["A_ub"].shape[0])
        return real(*args, **kwargs)

    return mock.patch.object(dualnorm, "linprog", counted)


def random_measure(rng, n_atoms, kind="signed", grid=None):
    """Random canonical measure; kind in signed | probability | zero_mass."""
    if grid is None:
        pos = rng.uniform(0.0, 1.0, size=n_atoms)
    else:
        pos = rng.choice(grid, size=n_atoms, replace=False)
    if kind == "probability":
        w = rng.uniform(0.05, 1.0, size=n_atoms)
        w /= w.sum()
    elif kind == "zero_mass":
        w = rng.standard_normal(n_atoms)
        w -= w.mean()
        if n_atoms == 1:
            w = np.array([0.0])
    else:
        w = rng.standard_normal(n_atoms)
    return canonicalize(AtomicSignedMeasure(pos, w))


def from_dict_per_cell(d):
    """The per-cell reader the flat ``DisintegratedMeasure.from_dict`` replaced."""
    phi1 = np.asarray(d["phi1"], dtype=float)
    fibers = [AtomicSignedMeasure.from_pairs(p) for p in d["fibers"]]
    if d.get("normalized", True):
        fibers = [float(p) * f for p, f in zip(phi1, fibers, strict=True)]
    return ek.DisintegratedMeasure.from_fibers(
        x=np.asarray(d["x"], dtype=float), ref_masses=np.asarray(d["ref_masses"], dtype=float),
        phi1=phi1, fibers=fibers, reference=d["reference"], zeta=d.get("zeta", 1.0),
    )


@pytest.fixture(scope="session")
def doubling_system():
    return ek.gallery_entry("doubling-linear").build()


@pytest.fixture(scope="session")
def doubling_rpf64(doubling_system):
    return ek.build_rpf(doubling_system.base, doubling_system.potential, 64)


@pytest.fixture(scope="session")
def tsujii_system():
    return ek.gallery_entry("tsujii").build()


@pytest.fixture(scope="session")
def tsujii_rpf128(tsujii_system):
    return ek.build_rpf(tsujii_system.base, tsujii_system.potential, 128)


@pytest.fixture(scope="session")
def tsujii_equilibrium128(tsujii_system, tsujii_rpf128):
    dm0 = ek.initial_product(tsujii_rpf128, ek.dirac(1.0), reference="m", zeta=1.0)
    mu, report = ek.iterate_to_equilibrium(
        tsujii_system, tsujii_rpf128, dm0, tol=1e-11, max_iter=90
    )
    assert report.converged
    return mu, report


@pytest.fixture(scope="session")
def tsujii_rpf512(tsujii_system):
    return ek.build_rpf(tsujii_system.base, tsujii_system.potential, 512)


@pytest.fixture(scope="session")
def tsujii_equilibrium512(tsujii_system, tsujii_rpf512):
    dm0 = ek.initial_product(tsujii_rpf512, ek.dirac(1.0), reference="m", zeta=1.0)
    mu, report = ek.iterate_to_equilibrium(
        tsujii_system, tsujii_rpf512, dm0, tol=1e-10, max_iter=90
    )
    return mu, report
