"""One benchmark command: run the ergodykit CLI once in this process and report.

    python3 bench/child.py REPORT TRACE -- CLI-ARGS...

The parent sets the BLAS thread variables and PYTHONPATH before this
process starts, so they are in force before numpy loads.  Two hooks are
always on and cost one extra call each: the return of ``cli._prepare``
marks the end of set-up (import, parse_config, build_system, build_rpf),
and ``cli.iterate_to_equilibrium`` reports how many iterations ran.  With
TRACE = 1 every entry point in ``spans.TARGETS`` is wrapped as well.
The report (JSON) is written after the CLI returns.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time

from spans import Tracer


def _vm_hwm_kb() -> int:
    """Peak resident set of this process, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _install_hooks(cli, info: dict):
    prepare = cli._prepare
    iterate = cli.iterate_to_equilibrium

    def timed_prepare(*args, **kwargs):
        out = prepare(*args, **kwargs)
        info["setup_done"] = time.monotonic()
        return out

    def counted_iterate(*args, **kwargs):
        mu, report = iterate(*args, **kwargs)
        info["iterations"].append(report.iterations)
        return mu, report

    cli._prepare = timed_prepare
    cli.iterate_to_equilibrium = counted_iterate


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- CLI-ARGS...")
    cli_args = sys.argv[4:]
    tracer = Tracer() if trace else None

    t0 = time.perf_counter()
    from ergodykit import cli, dualnorm
    import numpy
    import scipy

    t1 = time.perf_counter()
    # numba, when present, replaces the pure-python sweep at import time
    backend = "python" if dualnorm._flat_chain is dualnorm._flat_chain_kernel else "numba"
    info = {"iterations": []}
    _install_hooks(cli, info)
    if tracer is not None:
        tracer.record("cli.import", t0, t1)
        tracer.install()

    rc = cli.main(cli_args)
    info["main_done"] = time.monotonic()
    info.update(
        rc=rc,
        vm_hwm_kb=_vm_hwm_kb(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        numba=importlib.util.find_spec("numba") is not None,
        flat_chain=backend,
    )
    if tracer is not None:
        info["trace"] = tracer.dump()
    with open(report_path, "w") as fh:
        json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
