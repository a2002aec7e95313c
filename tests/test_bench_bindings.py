"""The benchmark wraps library names from outside; each must keep resolving.

``bench/spans.py`` lists every ``(module, attribute)`` it wraps under
``--trace 1``, and ``bench/child.py`` hooks ``cli._prepare`` and
``cli.iterate_to_equilibrium`` on every run and reads the numba switch in
``dualnorm``.  A rename or deletion of any of them would break the
benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHILD_NAMES = (
    ("ergodykit.cli", "_prepare"),
    ("ergodykit.cli", "iterate_to_equilibrium"),
    ("ergodykit.dualnorm", "_flat_chain"),
    ("ergodykit.dualnorm", "_flat_chain_kernel"),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings():
    wrapped = [(m, a) for m, a, _ in _load_spans().TARGETS]
    return list(dict.fromkeys(wrapped + list(CHILD_NAMES)))


@pytest.mark.parametrize("module, attr", _bindings(), ids=lambda s: s)
def test_benchmark_binding_resolves(module, attr):
    assert callable(_resolve(module, attr))


def test_power_iteration_reports_its_step_count():
    # spans.py counts power iterations from the third item of the result
    from ergodykit.baserpf import _power_iteration

    vec, lam, iters = _power_iteration(lambda v: 2.0 * v, 8)
    assert lam == pytest.approx(2.0) and iters == 1 and vec.shape == (8,)
    assert np.all(vec == 1.0 / 8)


def test_flat_chain_aliases_are_one_callable():
    # bench/child.py reports backend "numba" unless the two names are the
    # same object, which would change the recorded ``flat_chain`` field
    from ergodykit import dualnorm

    assert dualnorm._flat_chain is dualnorm._flat_chain_kernel
