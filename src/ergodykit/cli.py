"""Batch front-end: parse a run configuration, run pipelines, emit reports.

The configuration is a flat structured-text file of ``[section]`` headers
and ``key = value`` lines (no nesting), so any language can write one.
Exit codes are a stable contract: 0 success, 2 configuration error
(message anchored to the offending line), 3 numeric failure (running out
of memory included).  Every integer value must fit in 64 bits, as numpy
holds it.  CSV floats
are printed with 17 significant digits and JSON floats as their shortest
round-trip ``repr``, so files can be re-ingested bit-faithfully.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import signal
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baserpf import (
    ConstructionError,
    Potential,
    RPFDiscretization,
    build_rpf,
    check_hypotheses,
)
from .disint import (
    DisintegratedMeasure,
    Observable,
    _write_json_floats,
    convert_reference,
    disintegration_holder,
    l1_norm,
    linf_norm,
    product_measure,
    s1_norm,
    sinf_norm,
)
from .dualnorm import NumericError
from .measures import dirac
from .stats import correlation_birkhoff, correlation_operator, fit_exponential
from .systems import (
    fiber_discontinuous,
    fiber_linear,
    fiber_tsujii,
    gallery,
    gallery_entry,
    linear_expanding,
    manneville_pomeau,
    mp_geometric_potential,
)
from .transfer import (
    DEFAULT_ATOM_CAP,
    DEFAULT_COMPRESS_DELTA,
    SkewSystem,
    convergence_constants,
    estimate_spectral_gap,
    iterate_to_equilibrium,
    regularity_constants,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending line/key."""


_SCHEMA = {
    "system": {
        "gallery": str,
        "base": str,
        "l": int,
        "alpha_mp": float,
        "fiber": str,
        "alpha": float,
        "alpha1": float,
        "alpha2": float,
        "o_c0": float,
        "o_c1": float,
        "potential": str,
        "value": float,
        "t": float,
        "zeta": float,
    },
    "discretization": {
        "base_cells": int,
        "fiber_atom_cap": int,
        "compress_delta": float,
    },
    "run": {
        "max_iter": int,
        "tol": float,
        "correlation_n": int,
        "mc_orbits": int,
        "mc_burn_in": int,
        "seed": int,
        "physical": bool,
        "u": str,
        "g": str,
    },
    "output": {
        "directory": str,
        "formats": str,
    },
}

_RANGES = {
    ("system", "zeta"): (lambda v: 0 < v <= 1, "zeta must lie in (0, 1]"),
    ("system", "alpha"): (lambda v: 0 <= v < 1, "alpha must lie in [0, 1)"),
    ("system", "alpha1"): (lambda v: 0 <= v < 1, "alpha1 must lie in [0, 1)"),
    ("system", "alpha2"): (lambda v: 0 <= v < 1, "alpha2 must lie in [0, 1)"),
    ("system", "alpha_mp"): (lambda v: 0 < v < 1, "alpha_mp must lie in (0, 1)"),
    ("system", "l"): (lambda v: v >= 2, "l must be at least 2"),
    ("discretization", "base_cells"): (lambda v: v >= 8, "base_cells must be >= 8"),
    ("discretization", "fiber_atom_cap"): (lambda v: v >= 2, "fiber_atom_cap must be >= 2"),
    ("discretization", "compress_delta"): (lambda v: v > 0, "compress_delta must be > 0"),
    ("run", "max_iter"): (lambda v: v >= 1, "max_iter must be >= 1"),
    ("run", "tol"): (lambda v: v >= 0, "tol must be >= 0"),
    ("run", "correlation_n"): (lambda v: v >= 1, "correlation_n must be >= 1"),
    ("run", "mc_orbits"): (lambda v: v >= 2, "mc_orbits must be >= 2"),
    ("run", "mc_burn_in"): (lambda v: v >= 0, "mc_burn_in must be >= 0"),
    ("run", "seed"): (lambda v: v >= 0, "seed must be >= 0"),
    ("output", "formats"): (lambda v: v and set(v) <= {"json", "csv"},
                            "formats must list json, csv or both"),
}


@dataclass
class RunConfig:
    """Parsed configuration with defaults for everything optional."""

    system: dict = field(default_factory=dict)
    base_cells: int = 0  # required
    fiber_atom_cap: int = DEFAULT_ATOM_CAP
    compress_delta: float = DEFAULT_COMPRESS_DELTA
    max_iter: int = 100
    tol: float = 1e-8
    correlation_n: int = 20
    mc_orbits: int = 48
    mc_burn_in: int = 200
    seed: int = 0
    physical: bool = False
    u_name: str = "y"
    g_name: str = "y"
    directory: str = "out"
    formats: tuple[str, ...] = ("json", "csv")


# config keys whose RunConfig field has another name
_FIELD_NAMES = {"u": "u_name", "g": "g_name"}


def _parse_value(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected a boolean")
        val = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not np.isfinite(val):
        raise ConfigError(f"{where}: value {raw!r} is not finite")
    if typ is int and not -(2**63) <= val < 2**63:
        raise ConfigError(f"{where}: value {raw!r} does not fit in 64 bits")
    return val


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate the flat [section] key=value file."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    data: dict[str, dict] = {}
    section = None
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{where}: unknown section [{section}]")
            data.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        if key in data[section]:
            raise ConfigError(f"{where}: duplicate key {key!r} in [{section}]")
        val = _parse_value(raw, _SCHEMA[section][key], where)
        if key == "formats":
            val = tuple(f.strip() for f in val.split(",") if f.strip())
        check = _RANGES.get((section, key))
        if check and not check[0](val):
            raise ConfigError(f"{where}: {check[1]} (got {val!r})")
        data[section][key] = val

    if "base_cells" not in data.get("discretization", {}):
        raise ConfigError(f"{path}: missing required key 'base_cells' in [discretization]")
    # every key given outside [system] sets the RunConfig field of its name;
    # the others keep RunConfig's defaults
    given = {
        _FIELD_NAMES.get(key, key): val
        for section in ("discretization", "run", "output")
        for key, val in data.get(section, {}).items()
    }
    return RunConfig(system=data.get("system", {}), **given)


def build_system(cfg: RunConfig) -> SkewSystem:
    """Instantiate the skew system described by the [system] section."""
    sysec = cfg.system
    if "gallery" in sysec:
        extra = set(sysec) - {"gallery"}
        if extra:
            raise ConfigError(
                f"[system] gallery entry cannot be combined with keys {sorted(extra)}"
            )
        try:
            return gallery_entry(sysec["gallery"]).build()
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    zeta = sysec.get("zeta", 1.0)
    base_kind = sysec.get("base")
    if base_kind == "linear":
        base = linear_expanding(sysec.get("l", 2))
    elif base_kind == "mp":
        base = manneville_pomeau(sysec.get("alpha_mp", 0.5))
    else:
        raise ConfigError(f"[system] base must be 'linear' or 'mp', got {base_kind!r}")
    fiber_kind = sysec.get("fiber")
    if fiber_kind == "linear":
        fiber = fiber_linear(sysec.get("alpha", 0.5))
    elif fiber_kind == "discontinuous":
        fiber = fiber_discontinuous(sysec.get("alpha1", 0.3), sysec.get("alpha2", 0.6))
    elif fiber_kind == "tsujii":
        c0 = sysec.get("o_c0", 0.25)
        c1 = sysec.get("o_c1", 0.25)
        fiber = fiber_tsujii(
            sysec.get("alpha", 0.5),
            lambda x, _c0=c0, _c1=c1: _c0 + _c1 * np.cos(2 * np.pi * np.asarray(x, dtype=float)),
            o_holder=2 * np.pi * abs(c1),
        )
    else:
        raise ConfigError(
            f"[system] fiber must be linear/discontinuous/tsujii, got {fiber_kind!r}"
        )
    pot_kind = sysec.get("potential", "zero")
    if pot_kind == "zero":
        pot = Potential.constant(0.0, zeta=zeta)
    elif pot_kind == "constant":
        pot = Potential.constant(sysec.get("value", 0.0), zeta=zeta)
    elif pot_kind == "mp_geometric":
        if base_kind != "mp":
            raise ConfigError("[system] potential mp_geometric needs base = mp")
        pot = mp_geometric_potential(sysec.get("alpha_mp", 0.5), sysec.get("t", 0.05), zeta)
    else:
        raise ConfigError(f"[system] unknown potential kind {pot_kind!r}")
    return SkewSystem(base=base, fiber=fiber, potential=pot, zeta=zeta, name="config")


_OBSERVABLES = {
    "one": lambda z: Observable.constant(1.0, z),
    "y": lambda z: Observable.coord_y(z),
    "x": lambda z: Observable.coord_x(z),
    "cosx": lambda z: Observable(
        fn=lambda x, y: np.cos(2 * np.pi * np.asarray(x, dtype=float))
        + np.zeros_like(np.asarray(y, dtype=float)),
        zeta=z, holder_bound=1.0 + 2.0 * np.pi, name="cos(2 pi x)",
    ),
    "cosy": lambda z: Observable(
        fn=lambda x, y: np.cos(2 * np.pi * np.asarray(y, dtype=float)),
        zeta=z, holder_bound=1.0 + 2.0 * np.pi, name="cos(2 pi y)",
    ),
    "xy": lambda z: Observable(
        fn=lambda x, y: np.asarray(x, dtype=float) * np.asarray(y, dtype=float),
        zeta=z, holder_bound=3.0, name="x*y",
    ),
}


def _observable(name: str, zeta: float) -> Observable:
    if name not in _OBSERVABLES:
        raise ConfigError(
            f"unknown observable {name!r}; have {sorted(_OBSERVABLES)}"
        )
    return _OBSERVABLES[name](zeta)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _np_default(o):
    if isinstance(o, (np.bool_,)):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_eigen_json(fh, rpf: RPFDiscretization):
    """Write ``json.dumps(rpf.eigen_dict(), indent=1, sort_keys=True)`` and
    a newline to ``fh``, byte for byte, with h, m and nu streamed from
    their arrays.  The eigendata is finite, so every float is its repr."""
    fh.write('{\n "h": ')
    _write_json_floats(fh, rpf.h)
    fh.write(',\n "lambda": %r,\n "m": ' % float(rpf.lam))
    _write_json_floats(fh, rpf.m)
    fh.write(',\n "nu": ')
    _write_json_floats(fh, rpf.nu)
    fh.write(
        ',\n "resid_left": %r,\n "resid_right": %r\n}\n'
        % (float(rpf.resid_left), float(rpf.resid_right))
    )


def _write_json(path: Path, payload: dict | DisintegratedMeasure | RPFDiscretization):
    """Indented, key-sorted JSON of ``payload``; a measure is streamed from
    its flat arrays (``DisintegratedMeasure.write_json``) and a
    discretization's eigendata from its vectors, to the same bytes as
    ``json.dumps`` of ``to_dict()`` / ``eigen_dict()``."""
    with open(path, "w") as fh:
        if isinstance(payload, DisintegratedMeasure):
            payload.write_json(fh)
        elif isinstance(payload, RPFDiscretization):
            _write_eigen_json(fh, payload)
        else:
            fh.write(json.dumps(payload, indent=1, sort_keys=True, default=_np_default) + "\n")


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _prepare(cfg: RunConfig, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    system = build_system(cfg)
    rpf = build_rpf(system.base, system.potential, cfg.base_cells)
    return system, rpf


def _equilibrium(cfg: RunConfig, system: SkewSystem, rpf: RPFDiscretization,
                 distances: bool = True):
    """The equilibrium state and its report.

    Iterates the normalized operator from the product of m with the Dirac
    fiber at 1, with the run's tolerance, iteration and compression limits.
    A caller that does not read the report's distances passes
    ``distances=False`` (see ``iterate_to_equilibrium``).
    """
    dm0 = product_measure(1.0, dirac(1.0), rpf=rpf, reference="m", zeta=system.zeta)
    return iterate_to_equilibrium(
        system, rpf, dm0, tol=cfg.tol, max_iter=cfg.max_iter,
        compress_delta=cfg.compress_delta, atom_cap=cfg.fiber_atom_cap,
        distances=distances,
    )


def _start_worker(fn, *args, **kwargs):
    """Start ``fn(*args, **kwargs)`` in a forked worker process.

    Returns ``join(kill=False)``.  ``join()`` waits for the worker and
    returns fn's result, or raises the exception fn raised, so a caller
    sees what the same call made inline gives; a worker that ends without
    a result (killed by a signal, out of memory) raises NumericError.
    ``join(kill=True)`` SIGKILLs and reaps a worker not yet joined.  The
    worker sends its pickled ``(ok, result or exception)`` through a pipe
    and always leaves through ``os._exit``: it never returns into the
    caller's stack, runs no atexit handler and flushes no inherited stdio.
    Where ``os.fork`` does not exist, ``join()`` makes the call inline.
    """
    if not hasattr(os, "fork"):
        return lambda kill=False: None if kill else fn(*args, **kwargs)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                payload = (True, fn(*args, **kwargs))
            except BaseException as exc:  # re-raised by join in the parent
                payload = (False, exc)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    reader = os.fdopen(r, "rb")
    reaped = False

    def join(kill=False):
        nonlocal reaped
        if reaped:
            return None
        if kill:
            os.kill(pid, signal.SIGKILL)
        try:
            data = b"" if kill else reader.read()
        finally:
            reader.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if kill:
            return None
        if code != 0:
            how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                   else f"exited with status {code}")
            raise NumericError(f"worker process {how} without a result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    return join


def cmd_equilibrium(cfg: RunConfig, out_dir: Path) -> int:
    system, rpf = _prepare(cfg, out_dir)
    mu, report = _equilibrium(cfg, system, rpf)
    if "json" in cfg.formats:
        _write_json(out_dir / "equilibrium.json", mu)
        _write_json(out_dir / "eigen.json", rpf)
        _write_json(out_dir / "convergence.json",
                    {**report.to_dict(), **convergence_constants(system, rpf)})
    if "csv" in cfg.formats:
        _write_csv(
            out_dir / "convergence.csv",
            "iteration,distance",
            [(k + 1, float(d)) for k, d in enumerate(report.distances)],
        )
    return 0


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    system = build_system(cfg)
    rep = check_hypotheses(system.base, system.potential, system.zeta)
    payload = rep.to_dict()
    payload["fiber"] = system.sampled_invariants(seed=cfg.seed)
    payload["fiber"]["alpha_l_ok"] = system.regularity_precondition < 1.0
    _write_json(out_dir / "hypothesis_report.json", payload)
    return 0


def cmd_correlations(cfg: RunConfig, out_dir: Path) -> int:
    """Operator correlations, and with ``physical`` Birkhoff ones as well.

    The Birkhoff estimate needs only the system, so it runs in a forked
    worker (``_start_worker``) alongside the equilibrium, the gap estimate
    and the operator route, which stay in this process.  Each side draws
    its numbers from a generator of its own seeded with ``cfg.seed``
    (``measures.seeded``), so running them apart changes no output.
    """
    system, rpf = _prepare(cfg, out_dir)
    u = _observable(cfg.u_name, system.zeta)
    g = _observable(cfg.g_name, system.zeta)
    birkhoff = None
    if cfg.physical:
        birkhoff = _start_worker(
            correlation_birkhoff, system, u, g, cfg.correlation_n, orbits=cfg.mc_orbits,
            burn_in=cfg.mc_burn_in, rng_seed=cfg.seed,
        )
    try:
        mu, _ = _equilibrium(cfg, system, rpf, distances=False)
        gap = estimate_spectral_gap(
            system, rpf, trials=5, n_steps=12, seed=cfg.seed,
            compress_delta=cfg.compress_delta, atom_cap=cfg.fiber_atom_cap,
        )
        tables = [
            correlation_operator(
                system, rpf, mu, u, g, cfg.correlation_n, gap=gap,
                compress_delta=cfg.compress_delta, atom_cap=cfg.fiber_atom_cap,
            )
        ]
        if birkhoff is not None:
            tables.append(birkhoff())
    finally:
        if birkhoff is not None:
            birkhoff(kill=True)
    for t in tables:
        try:
            fit_exponential(t)
        except ValueError:
            pass  # too few usable entries; leave the fit empty
    if "csv" in cfg.formats:
        rows = []
        for t in tables:
            for n, v, se in t.rows():
                rows.append((t.method, n, float(v), float(se)))
        _write_csv(out_dir / "correlations.csv", "method,n,C_n,stderr", rows)
    if "json" in cfg.formats:
        _write_json(
            out_dir / "correlations.json",
            {"tables": [t.to_dict() for t in tables], "gap": gap.to_dict()},
        )
    return 0


def cmd_regularity(cfg: RunConfig, out_dir: Path) -> int:
    system, rpf = _prepare(cfg, out_dir)
    mu, _ = _equilibrium(cfg, system, rpf, distances=False)
    bound = regularity_constants(system, rpf)
    payload = bound.to_dict()
    payload["empirical_holder"] = disintegration_holder(mu)
    payload["alpha_l_zeta"] = system.regularity_precondition
    payload["satisfied"] = bool(payload["empirical_holder"] <= bound.bound + 1e-9)
    _write_json(out_dir / "regularity.json", payload)
    return 0


def cmd_norms(cfg: RunConfig, out_dir: Path, measure_file: str) -> int:
    system, rpf = _prepare(cfg, out_dir)
    try:
        payload = json.loads(Path(measure_file).read_text())
        dm = DisintegratedMeasure.from_dict(payload)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{measure_file}: measure file schema mismatch: {exc}") from exc
    if dm.n != rpf.n:
        raise ConfigError(
            f"{measure_file}: measure has {dm.n} cells but base_cells = {rpf.n}"
        )
    dm_nu = convert_reference(dm, rpf, "nu")
    dm_m = convert_reference(dm, rpf, "m")
    _write_json(
        out_dir / "norms.json",
        {
            "l1": l1_norm(dm_nu),
            "linf": linf_norm(dm_m),
            "s1": s1_norm(dm_nu),
            "sinf": sinf_norm(dm_m),
            "zeta": dm.zeta,
        },
    )
    return 0


def cmd_gallery() -> int:
    for e in gallery():
        consts = ", ".join(f"{k}={v:g}" for k, v in e.constants.items())
        print(f"{e.name}: {consts}")
        print(f"    {e.note}")
    return 0


def main(argv=None) -> int:
    """Run one ``ergodykit`` command; returns its exit code (0, 2 or 3).

    The first thing ``main`` does is ``gc.freeze()``: every object alive at
    that point (the imported numpy, stdlib and ergodykit modules, classes
    and functions) moves to the collector's permanent generation.  The
    collections that interpreter shutdown runs skip that generation, so a
    CLI process no longer walks and frees its import-time heap object by
    object on exit.  The freeze is not undone on return.  An in-process
    caller inherits it: cyclic garbage that exists when it calls ``main``
    is never collected (``gc.unfreeze()`` undoes that), while objects
    created afterwards, and acyclic ones freed by reference counting, are
    collected as before.  Importing the package changes nothing.
    """
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="ergodykit",
        description="equilibrium states of piecewise partially hyperbolic skew products",
    )
    parser.add_argument(
        "command",
        choices=["equilibrium", "verify", "correlations", "regularity", "norms", "gallery"],
    )
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--out", help="output directory (overrides [output] directory)")
    parser.add_argument("--seed", type=int, help="override [run] seed")
    parser.add_argument("--measure", help="measure JSON file (norms command)")
    args = parser.parse_args(argv)

    if args.command == "gallery":
        return cmd_gallery()
    if not args.config:
        print("error: --config is required", file=_sys.stderr)
        return 2
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            check, message = _RANGES[("run", "seed")]
            if not check(args.seed):
                raise ConfigError(f"--seed: {message} (got {args.seed!r})")
            cfg.seed = args.seed
        out_dir = Path(args.out) if args.out else Path(cfg.directory)
        if args.command == "equilibrium":
            return cmd_equilibrium(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "correlations":
            return cmd_correlations(cfg, out_dir)
        if args.command == "regularity":
            return cmd_regularity(cfg, out_dir)
        if args.command == "norms":
            if not args.measure:
                print("error: norms needs --measure FILE", file=_sys.stderr)
                return 2
            return cmd_norms(cfg, out_dir, args.measure)
        raise AssertionError("unreachable")
    except (ConfigError, ConstructionError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"numeric failure: {str(exc) or type(exc).__name__}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
