"""Benchmark of the ergodykit CLI: end-to-end time, set-up, memory, per-layer trace.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each command of a run is one ``python3 -m ergodykit``-style CLI invocation
in a fresh single-threaded process (BLAS pinned to one thread before numpy
loads, ``src`` on PYTHONPATH), on a config generated from the seed.  A run
repeats the workload's command until ``--seconds`` would be exceeded, with
at least three commands, and checks every command's outputs (see
workloads.py); the deterministic outputs must be byte-identical from
command to command.

With ``--trace 0`` the run reports the median over its commands of
``wall_s`` (launch to exit), ``setup_s`` (launch until ``cli._prepare``
returned: import, parse_config, build_system, build_rpf) and
``peak_rss_mb`` (VmHWM of the child alone).  Each command runs right after
reference.py, and the two times are reported at the reference's nominal
speed (see ``_e2e``), which cancels most of the drift in machine speed
that a shared host shows from second to second.  With ``--trace 1`` it
alternates untraced and traced commands and reports per-layer self times
and exact counts from the traced ones (see spans.py); every count must
repeat exactly between traced commands.  ``--workload all`` runs every
workload in turn and prints one table with the failure rates.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a result
(no ergodykit sources next to this directory, or no command completed)
the benchmark exits with status 1 and prints no JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import EXACT, SELF_METRIC, summarize, unit_of
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

COMMAND_TIMEOUT_S = 60.0
RUN_BUDGET_S = 100.0  # start no command after this, whatever --seconds says
MIN_UNTRACED = 3
MIN_TRACED = 2

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Medians of reference.py on the machine the benchmark was built on (2-vCPU
# Intel Xeon VM): until its imports were done, and until it exited.  wall_s
# and setup_s are reported at the speed these stand for.
REFERENCE_S = {"setup_s": 0.51, "wall_s": 0.69}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    # applied before numpy loads; the CLI's ERGODYKIT_THREADS comes too late
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # cache bytecode as an installed package would, so that setup_s does not
    # depend on whether the caller's environment disables it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def warm_up(env: dict):
    """Import the package once so its bytecode is cached before timing."""
    if not (SRC / "ergodykit" / "cli.py").is_file():
        raise BenchError(f"no ergodykit sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import ergodykit.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import ergodykit:\n{proc.stderr}")


class Runner:
    """Runs the commands of one workload run and checks each one."""

    def __init__(self, workload, seed: int, work: Path, env: dict):
        self.wl = workload
        self.work = work
        self.env = env
        self.cfg = work / "run.cfg"
        self.cfg.write_text(workload.config(seed))
        self.count = 0
        self.digest = None
        self.exact = None
        self.env_info = {}

    def _launch(self, argv, log: Path):
        """Run argv to exit; returns (exit code, wall seconds, launch time)."""
        with open(log, "wb") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.work
            )
            # a blocking wait returns at exit; wait(timeout=...) would poll
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
            t1 = time.monotonic()
        return rc, t1 - t0, t0

    def reference(self) -> dict:
        """Times of one run of reference.py, keyed like the metrics they scale."""
        stamp = self.work / "reference.stamp"
        rc, wall, launched = self._launch(
            [sys.executable, str(BENCH / "reference.py"), str(stamp)],
            self.work / "reference.txt",
        )
        if rc != 0:
            raise BenchError(f"reference.py exited with {rc}")
        return {"setup_s": float(stamp.read_text()) - launched, "wall_s": wall}

    def command(self, trace: bool) -> dict:
        k = self.count
        self.count += 1
        out = self.work / f"out{k}"
        report = self.work / f"report{k}.json"
        log = self.work / f"log{k}.txt"
        argv = [
            sys.executable, str(BENCH / "child.py"), str(report), "1" if trace else "0",
            "--", self.wl.command, "--config", str(self.cfg), "--out", str(out),
        ]
        rc, wall, launched = self._launch(argv, log)
        sample = {"trace": trace, "wall_s": wall, "errors": []}
        errs = sample["errors"]
        if rc != 0:
            errs.append(f"exit code {rc}")
        try:
            info = json.loads(report.read_text())
        except (OSError, ValueError):
            info = None
            errs.append("no report from the child")
        if info is not None:
            self.env_info = {key: info[key] for key in ("numpy", "scipy", "numba", "flat_chain")}
            if "setup_done" in info:
                sample["setup_s"] = info["setup_done"] - launched
            else:
                errs.append("set-up never finished")
            sample["peak_rss_mb"] = info["vm_hwm_kb"] / 1024.0
            if info["iterations"] != [self.wl.max_iter]:
                errs.append(
                    f"iterations {info['iterations']} != configured [{self.wl.max_iter}]"
                )
            if trace:
                layers = summarize(info["trace"], wall, info["main_done"] - launched)
                sample["layers"] = layers
                exact = {m: layers[m] for m in EXACT}
                if self.exact is None:
                    self.exact = exact
                elif exact != self.exact:
                    diff = sorted(m for m in EXACT if exact[m] != self.exact[m])
                    errs.append(f"counts differ from the first traced command: {diff}")
        if rc == 0:
            errs.extend(self._check_outputs(out))
        if errs:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"command {k} failed: {'; '.join(errs)}\n{tail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def _check_outputs(self, out: Path) -> list[str]:
        try:
            errs = self.wl.check(out)
            h = hashlib.sha256()
            for name in self.wl.outputs:
                h.update((out / name).read_bytes())
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.digest is None:
            self.digest = h.hexdigest()
        elif h.hexdigest() != self.digest:
            errs.append("outputs differ from the first command's")
        return errs


def _e2e(samples: list[dict], metric: str) -> dict:
    """Median of one end-to-end metric, with its count, min and max.

    Times are divided by the reference run just before each command, and
    the median ratio is scaled back to seconds at REFERENCE_S.
    """
    raw = [s[metric] for s in samples]
    out = {"raw": statistics.median(raw), "n": len(raw), "min": min(raw), "max": max(raw)}
    if metric in REFERENCE_S and all("ref" in s for s in samples):
        ratio = statistics.median(s[metric] / s["ref"][metric] for s in samples)
        out["value"] = ratio * REFERENCE_S[metric]
    else:
        out["value"] = out["raw"]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    wl = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(wl, seed, work, env)
        start = time.monotonic()
        deadline = start + seconds
        samples: list[dict] = []
        while True:
            traced_next = trace and len(samples) % 2 == 1
            ref = None if trace else runner.reference()
            s = runner.command(traced_next)
            if ref is not None:
                s["ref"] = ref
            samples.append(s)
            if any(e.startswith("exit code") for e in s["errors"]):
                break  # a crash or a timeout would repeat; stop here
            untraced = [x for x in samples if not x["trace"]]
            traced = [x for x in samples if x["trace"]]
            if trace:
                enough = len(untraced) >= 1 and len(traced) >= MIN_TRACED
                upcoming = traced if len(samples) % 2 == 1 and traced else untraced
            else:
                enough = len(untraced) >= MIN_UNTRACED
                upcoming = untraced
            cost = statistics.median(x["wall_s"] + x.get("ref", {}).get("wall_s", 0.0)
                                     for x in upcoming)
            now = time.monotonic()
            if now - start > RUN_BUDGET_S:
                break
            if enough and now + cost > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    good = [s for s in samples if not s["errors"]]
    failed = len(samples) - len(good)
    untraced = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    if not untraced or (trace and not traced):
        raise BenchError(f"{name}: no command completed ({failed} failed)")
    result = {
        "name": name,
        "seed": seed,
        "attempted": len(samples),
        "failed": failed,
        "digest": runner.digest,
        "env": runner.env_info,
        "e2e": {m: _e2e(untraced, m) for m in E2E_UNITS},
    }
    if trace:
        layers = dict(traced[0]["layers"])  # exact counts repeat (checked)
        for metric in set(layers) - set(EXACT):
            layers[metric] = statistics.median(s["layers"][metric] for s in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["e2e"]["wall_s"]["raw"]
        result["layers"] = layers
        result["traced_commands"] = len(traced)
    return result


def print_run(r: dict, trace: bool):
    print(f"workload {r['name']} seed {r['seed']}: {r['attempted']} commands, "
          f"{r['failed']} failed, outputs sha256 {r['digest']}")
    for metric, unit in E2E_UNITS.items():
        e = r["e2e"][metric]
        line = (f"  {metric:<12} median {e['raw']:.4f} {unit} over {e['n']} untraced "
                f"commands (min {e['min']:.4f}, max {e['max']:.4f})")
        if e["value"] != e["raw"]:
            line += f"; at reference speed {e['value']:.4f} {unit}"
        print(line)
    if trace:
        layers = r["layers"]
        wall = layers["trace.wall_s"]
        print(f"  traced commands {r['traced_commands']}; self time share of traced wall:")
        timed = sorted(set(SELF_METRIC.values()) | {"trace.unattributed_s"},
                       key=lambda m: -layers[m])
        for metric in timed:
            if layers[metric] > 0.005 * wall:
                print(f"    {metric:<34} {layers[metric]:9.4f} s  {layers[metric] / wall:6.1%}")


def print_env(env_info: dict):
    print(
        f"env: cpu={cpu_model()!r} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={env_info.get('numpy')} "
        f"scipy={env_info.get('scipy')} "
        f"numba={'present' if env_info.get('numba') else 'absent'} "
        f"flat_chain={env_info.get('flat_chain')} blas_threads=1"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = args.trace == 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    try:
        warm_up(env)
        results = [run_workload(n, args.seed, args.seconds, trace, env) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_run(r, trace)
    print_env(results[0]["env"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['name']}." if len(results) > 1 else ""
        if trace:
            for metric, value in r["layers"].items():
                metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
        else:
            for metric, unit in E2E_UNITS.items():
                metrics[prefix + metric] = {"value": r["e2e"][metric]["value"], "unit": unit}
    if len(results) > 1:
        print(f"{'workload':<18} {'wall_s':>9} {'setup_s':>9} {'peak_rss_mb':>12} {'fail_rate':>16}")
        for r in results:
            e = {m: v["value"] for m, v in r["e2e"].items()}
            rate = r["failed"] / r["attempted"]
            print(f"{r['name']:<18} {e['wall_s']:>7.3f} s {e['setup_s']:>7.3f} s "
                  f"{e['peak_rss_mb']:>9.1f} MB {rate:>6.3f} ({r['failed']}/{r['attempted']})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
