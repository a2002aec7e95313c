import dataclasses
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ergodykit
from ergodykit import cli, disint
from ergodykit.cli import main, parse_config, ConfigError, RunConfig
from ergodykit.disint import DisintegratedMeasure

BASE_CONFIG = """
[system]
gallery = doubling-linear

[discretization]
base_cells = 64
fiber_atom_cap = 64
compress_delta = 1e-4

[run]
max_iter = 40
tol = 1e-9
seed = 0

[output]
directory = {out}
formats = json,csv
"""


# a small zeta = 1 run: exactly three tsujii steps at n = 16
TSUJII_16_CONFIG = (BASE_CONFIG.replace("gallery = doubling-linear", "gallery = tsujii")
                    .replace("base_cells = 64", "base_cells = 16")
                    .replace("max_iter = 40", "max_iter = 3")
                    .replace("tol = 1e-9", "tol = 0"))

# a zeta = 0.5 regularity run on multi-atom fibers: linear base, tsujii
# fiber with alpha = 0.5, n = 12, six iterations
HOLDER05_12_CONFIG = """
[system]
base = linear
l = 2
fiber = tsujii
alpha = 0.5
zeta = 0.5

[discretization]
base_cells = 12
fiber_atom_cap = 64
compress_delta = 1e-4

[run]
max_iter = 6
tol = 0
seed = 0

[output]
directory = {out}
formats = json,csv
"""


def write_config(tmp_path, text=None, name="run.cfg", out=None):
    out = out or (tmp_path / "out")
    cfg = tmp_path / name
    cfg.write_text((text or BASE_CONFIG).format(out=out))
    return cfg, out


class TestConfigParsing:
    def test_missing_base_cells_names_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[discretization]\nfiber_atom_cap = 8\n")
        with pytest.raises(ConfigError, match="base_cells"):
            parse_config(cfg)

    def test_unknown_key_line_anchored(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[discretization]\nbase_cells = 64\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
            parse_config(cfg)

    def test_unknown_section(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            parse_config(cfg)

    def test_malformed_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[discretization]\nbase_cells = soon\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(cfg)

    def test_range_check(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[system]\nzeta = 1.5\n[discretization]\nbase_cells = 64\n")
        with pytest.raises(ConfigError, match="zeta"):
            parse_config(cfg)

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[discretization]\nbase_cells = 64\nbase_cells = 32\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    def test_exit_code_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[discretization]\nfiber_atom_cap = 8\n")
        assert main(["equilibrium", "--config", str(cfg)]) == 2
        assert "base_cells" in capsys.readouterr().err

    def test_only_base_cells_keeps_run_config_defaults(self, tmp_path):
        cfg = tmp_path / "min.cfg"
        cfg.write_text("[discretization]\nbase_cells = 16\n")
        assert parse_config(cfg) == RunConfig(base_cells=16)

    @pytest.mark.parametrize("formats", ["xml", ",", "json, xml"])
    def test_bad_formats_exit_2_at_their_line(self, tmp_path, capsys, formats):
        # the list is checked where the key is read: the message names the
        # line, and an empty list is refused before any output is written
        text = TSUJII_16_CONFIG.replace("formats = json,csv", f"formats = {formats}")
        cfg, out = write_config(tmp_path, text, name="f1.ini")
        line = text.splitlines().index(f"formats = {formats}") + 1
        assert main(["equilibrium", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"f1.ini:{line}: formats must list json, csv or both" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_every_key_sets_its_field(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "[system]\ngallery = tsujii\n"
            "[discretization]\nbase_cells = 16\nfiber_atom_cap = 8\ncompress_delta = 0.01\n"
            "[run]\nmax_iter = 7\ntol = 0.5\ncorrelation_n = 3\nmc_orbits = 5\n"
            "mc_burn_in = 9\nseed = 4\nphysical = yes\nu = x\ng = cosy\n"
            "[output]\ndirectory = elsewhere\nformats = csv\n"
        )
        assert parse_config(cfg) == RunConfig(
            system={"gallery": "tsujii"}, base_cells=16, fiber_atom_cap=8,
            compress_delta=0.01, max_iter=7, tol=0.5, correlation_n=3, mc_orbits=5,
            mc_burn_in=9, seed=4, physical=True, u_name="x", g_name="cosy",
            directory="elsewhere", formats=("csv",),
        )


class TestEquilibriumCommand:
    def test_outputs_and_eigen(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        eigen = json.loads((out / "eigen.json").read_text())
        assert eigen["lambda"] == pytest.approx(2.0, abs=1e-8)
        assert (out / "equilibrium.json").exists()
        assert (out / "convergence.csv").read_text().startswith("iteration,distance")

    def test_byte_reproducible(self, tmp_path):
        cfg1, out1 = write_config(tmp_path, name="a.cfg", out=tmp_path / "o1")
        cfg2, out2 = write_config(tmp_path, name="b.cfg", out=tmp_path / "o2")
        assert main(["equilibrium", "--config", str(cfg1)]) == 0
        assert main(["equilibrium", "--config", str(cfg2)]) == 0
        for fname in ("equilibrium.json", "convergence.csv", "eigen.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_measure_streamed_without_to_dict(self, tmp_path, monkeypatch):
        # equilibrium.json comes from the flat arrays, and json.dumps of the
        # parsed file gives the same bytes back
        def refuse(self):
            raise AssertionError("the CLI serialized the measure through to_dict")

        monkeypatch.setattr(DisintegratedMeasure, "to_dict", refuse)
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        text = (out / "equilibrium.json").read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"

    def test_reports_realized_width(self, tmp_path):
        # one atom per cell never doubles: the bound is delta**zeta
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        conv = json.loads((out / "convergence.json").read_text())
        assert conv["realized_delta_max"] == conv["compress_delta"]
        assert conv["compress_error_bound"] == conv["compress_delta"]


class TestKernelDecayWhereWritten:
    """The kernel decay feeds only the constants in ``convergence.json``, so
    only ``equilibrium`` measures it, once; ``regularity`` and
    ``correlations`` iterate without it."""

    @pytest.mark.parametrize("command, text, calls", [
        ("equilibrium", TSUJII_16_CONFIG, 1),
        ("regularity", HOLDER05_12_CONFIG, 0),
        ("correlations", TSUJII_16_CONFIG.replace("seed = 0", "seed = 0\ncorrelation_n = 4"), 0),
    ])
    def test_calls_per_command(self, tmp_path, monkeypatch, command, text, calls):
        from ergodykit import transfer

        seen = []
        real = transfer.spectral_radius_on_kernel
        monkeypatch.setattr(transfer, "spectral_radius_on_kernel",
                            lambda *a, **k: seen.append(a) or real(*a, **k))
        cfg, _ = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg)]) == 0
        assert len(seen) == calls

    def test_convergence_json_keys(self, tmp_path):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        conv = json.loads((out / "convergence.json").read_text())
        assert sorted(conv) == sorted([
            "D3", "D4", "alpha_zeta", "atom_cap", "beta3", "compress_delta",
            "compress_error_bound", "converged", "distances", "fit_r2", "fitted_rate",
            "iterations", "r_hat", "realized_delta_max", "tol",
        ])
        assert conv["beta3"] == max(np.sqrt(conv["r_hat"]), np.sqrt(conv["alpha_zeta"]))


class TestDistancesWhereRead:
    """``regularity`` and ``correlations`` read only the stop decision of the
    iteration, so they iterate with ``distances=False``: their outputs are
    the bytes of a run that computes every exact distance.  ``equilibrium``
    writes the distances and keeps computing them."""

    @staticmethod
    def _spy(monkeypatch, force=None):
        seen = []
        real = cli.iterate_to_equilibrium

        def spy(*args, **kwargs):
            seen.append(kwargs["distances"])
            if force is not None:
                kwargs["distances"] = force
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "iterate_to_equilibrium", spy)
        return seen

    OUTPUTS = {"regularity": ("regularity.json",),
               "correlations": ("correlations.json", "correlations.csv")}

    # tol 0.05 stops the regularity runs after 9-10 of the 12 steps
    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("command, tol", [
        ("regularity", "0"), ("regularity", "1e-300"), ("regularity", "0.05"),
        ("correlations", "1e-300"),
    ])
    def test_bytes_match_exact_distances(self, tmp_path, monkeypatch, n, command, tol):
        text = (HOLDER05_12_CONFIG.replace("base_cells = 12", f"base_cells = {n}")
                .replace("max_iter = 6", "max_iter = 12")
                .replace("tol = 0", f"tol = {tol}\ncorrelation_n = 4"))
        cfg, out = write_config(tmp_path, text)
        exact = tmp_path / "exact"
        seen = self._spy(monkeypatch)
        assert main([command, "--config", str(cfg)]) == 0
        assert seen == [False]
        monkeypatch.undo()
        self._spy(monkeypatch, force=True)
        assert main([command, "--config", str(cfg), "--out", str(exact)]) == 0
        for name in self.OUTPUTS[command]:
            assert (out / name).read_bytes() == (exact / name).read_bytes(), name

    def test_equilibrium_keeps_exact_distances(self, tmp_path, monkeypatch):
        from ergodykit.transfer import _fit_geometric

        seen = self._spy(monkeypatch)
        cfg, out = write_config(tmp_path, HOLDER05_12_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        assert seen == [True]
        conv = json.loads((out / "convergence.json").read_text())
        assert len(conv["distances"]) == conv["iterations"] == 6
        assert min(conv["distances"]) > 0.0
        assert (conv["fitted_rate"], conv["fit_r2"]) == _fit_geometric(conv["distances"])


class TestEigenJson:
    """eigen.json is streamed from the eigenvectors to the bytes of
    ``json.dumps(rpf.eigen_dict(), indent=1, sort_keys=True)`` and a newline."""

    @staticmethod
    def _text(rpf):
        buf = io.StringIO()
        cli._write_eigen_json(buf, rpf)
        return buf.getvalue()

    @pytest.mark.parametrize("name", [e.name for e in ergodykit.gallery()])
    def test_bytes_match_json_dumps(self, name, monkeypatch):
        system = ergodykit.gallery_entry(name).build()
        full = ergodykit.build_rpf(system.base, system.potential, 97)
        # build_rpf needs 8 cells; the list text at 1 and 2 entries comes
        # from the first vector entries of the n = 97 discretization
        for n in (1, 2, 97):
            rpf = dataclasses.replace(full, n=n, h=full.h[:n], m=full.m[:n], nu=full.nu[:n])
            want = json.dumps(rpf.eigen_dict(), indent=1, sort_keys=True) + "\n"
            assert self._text(rpf) == want
            monkeypatch.setattr(disint, "_JSON_CHUNK_ATOMS", 1)
            assert self._text(rpf) == want
            monkeypatch.undo()

    def test_cli_writes_it_without_eigen_dict(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the CLI serialized the eigendata through eigen_dict")

        monkeypatch.setattr(ergodykit.RPFDiscretization, "eigen_dict", refuse)
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        text = (out / "eigen.json").read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


class TestVerifyCommand:
    def test_report_written(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg)]) == 0
        rep = json.loads((out / "hypothesis_report.json").read_text())
        assert rep["f1"]["pass"] and rep["f3"]["pass"]
        assert rep["fiber"]["alpha_l_ok"]

    def test_exit_zero_even_on_failed_hypotheses(self, tmp_path):
        text = BASE_CONFIG.replace(
            "gallery = doubling-linear",
            "base = linear\nl = 2\nfiber = linear\nalpha = 0.99\npotential = zero\nzeta = 1.0",
        )
        cfg, out = write_config(tmp_path, text)
        assert main(["verify", "--config", str(cfg)]) == 0
        rep = json.loads((out / "hypothesis_report.json").read_text())
        assert rep["fiber"]["alpha"] == pytest.approx(0.99)


class TestCorrelationsCommand:
    def test_constant_u_all_zero(self, tmp_path):
        text = BASE_CONFIG.replace(
            "seed = 0", "seed = 0\ncorrelation_n = 8\nu = one\ng = x"
        )
        cfg, out = write_config(tmp_path, text)
        assert main(["correlations", "--config", str(cfg)]) == 0
        rows = (out / "correlations.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[2]) <= 1e-9 for r in rows)
        meta = json.loads((out / "correlations.json").read_text())
        assert meta["tables"][0]["method"] == "operator"

    def test_birkhoff_included_when_physical(self, tmp_path):
        text = BASE_CONFIG.replace(
            "gallery = doubling-linear", "gallery = tsujii"
        ).replace(
            "seed = 0",
            "seed = 0\ncorrelation_n = 4\nphysical = true\nmc_orbits = 16\nmc_burn_in = 60\nu = y\ng = y",
        ).replace("base_cells = 64", "base_cells = 48")
        cfg, out = write_config(tmp_path, text)
        assert main(["correlations", "--config", str(cfg)]) == 0
        methods = {r.split(",")[0] for r in
                   (out / "correlations.csv").read_text().strip().splitlines()[1:]}
        assert methods == {"operator", "birkhoff"}


class TestRegularityCommand:
    def test_doubling_empirical_zero(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["regularity", "--config", str(cfg)]) == 0
        rep = json.loads((out / "regularity.json").read_text())
        assert rep["empirical_holder"] == pytest.approx(0.0, abs=1e-10)
        assert rep["satisfied"]


class TestNormsCommand:
    def test_norms_of_dumped_equilibrium(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        assert main(["norms", "--config", str(cfg), "--measure",
                     str(out / "equilibrium.json")]) == 0
        norms = json.loads((out / "norms.json").read_text())
        # equilibrium of G = alpha y over doubling: h = 1, fibers delta_0
        assert norms["sinf"] == pytest.approx(2.0, abs=1e-6)
        assert norms["l1"] == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_fiber_file_refused(self, tmp_path, capsys):
        # a file with "normalized": true stores phi1[j] times unit-mass
        # fibers; norms reads restriction files only
        text = BASE_CONFIG.replace("doubling-linear", "mp-geometric-holder")
        cfg, out = write_config(tmp_path, text)
        rng = np.random.default_rng(9)
        n = 64
        phi1 = rng.uniform(0.2, 2.0, n)
        phi1[5] = 0.0
        probs = []
        for _ in range(n):
            w = rng.uniform(0.1, 1.0, 3)
            probs.append(sorted(zip(rng.uniform(0, 1, 3).tolist(), (w / w.sum()).tolist())))
        common = {"n": n, "reference": "m", "zeta": 1.0,
                  "x": ((np.arange(n) + 0.5) / n).tolist(),
                  "ref_masses": np.full(n, 1.0 / n).tolist(), "phi1": phi1.tolist()}
        unit = dict(common, normalized=True, fibers=probs)
        restr = dict(common, normalized=False, fibers=[
            [[y, float(p) * w] for y, w in f] if p else [] for p, f in zip(phi1, probs)
        ])
        for name, payload in (("unit", unit), ("restr", restr)):
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["norms", "--config", str(cfg), "--measure", str(tmp_path / "unit.json"),
                     "--out", str(out / "unit")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "measure file schema mismatch" in err and '"normalized"' in err
        assert not (out / "unit" / "norms.json").exists()
        assert main(["norms", "--config", str(cfg), "--measure", str(tmp_path / "restr.json"),
                     "--out", str(out / "restr")]) == 0
        assert json.loads((out / "restr" / "norms.json").read_text())["l1"] > 0.0

    @pytest.mark.parametrize("text", [TSUJII_16_CONFIG, BASE_CONFIG.replace(
        "doubling-linear", "mp-geometric-holder").replace("base_cells = 64", "base_cells = 24")])
    def test_bytes_match_per_cell_reader(self, tmp_path, text):
        # norms.json of a written equilibrium equals the norms of the per-cell
        # reader's measure; the same measure as a "normalized": true file is
        # refused by both readers
        from ergodykit.cli import _write_json, build_system, parse_config
        from ergodykit.disint import convert_reference, l1_norm, linf_norm, s1_norm, sinf_norm

        from conftest import from_dict_per_cell

        cfg, out = write_config(tmp_path, text)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        restr = json.loads((out / "equilibrium.json").read_text())
        unit = dict(restr, normalized=True, fibers=[
            [[y, w / p] for y, w in f] if p else f for f, p in zip(restr["fibers"], restr["phi1"])
        ])
        conf = parse_config(cfg)
        sys_ = build_system(conf)
        rpf = ergodykit.build_rpf(sys_.base, sys_.potential, conf.base_cells)
        for name, payload in (("restr", restr), ("unit", unit)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
        assert main(["norms", "--config", str(cfg), "--measure", str(tmp_path / "restr.json"),
                     "--out", str(out / "restr")]) == 0
        dm = from_dict_per_cell(restr)
        dm_nu, dm_m = convert_reference(dm, rpf, "nu"), convert_reference(dm, rpf, "m")
        _write_json(tmp_path / "restr-ref.json", {
            "l1": l1_norm(dm_nu), "linf": linf_norm(dm_m), "s1": s1_norm(dm_nu),
            "sinf": sinf_norm(dm_m), "zeta": dm.zeta,
        })
        assert (out / "restr" / "norms.json").read_bytes() == \
            (tmp_path / "restr-ref.json").read_bytes()
        assert main(["norms", "--config", str(cfg), "--measure", str(tmp_path / "unit.json"),
                     "--out", str(out / "unit")]) == 2
        with pytest.raises(ValueError, match="unit-mass"):
            from_dict_per_cell(unit)

    @pytest.mark.parametrize("key, value", [
        ("normalized", True), ("normalized", None), ("zeta", None), ("n", None), ("n", 15),
    ])
    def test_file_beyond_the_written_schema_exits_2(self, tmp_path, capsys, key, value):
        # a written equilibrium with "normalized": true, or without its
        # normalized, zeta or n key, or with n not the number of fibers
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        payload = json.loads((out / "equilibrium.json").read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "measure file schema mismatch" in err and key in err
        assert not (out / "norms.json").exists()

    def test_schema_mismatch_exit_2(self, tmp_path):
        cfg, out = write_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2

    def test_missing_measure_flag(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        assert main(["norms", "--config", str(cfg)]) == 2


@pytest.fixture
def no_worker_left():
    """After the test this process has no child: no command left one."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the corr-tsujii-16 benchmark workload, and a zeta = 0.5 physical run
CORR_TSUJII_16_CONFIG = (TSUJII_16_CONFIG.replace("max_iter = 3", "max_iter = 12")
                         .replace("tol = 0", "tol = 1e-300")
                         .replace("seed = 0", "seed = 0\ncorrelation_n = 10\n"
                                  "physical = true\nmc_orbits = 16"))
CORR_HOLDER05_12_CONFIG = HOLDER05_12_CONFIG.replace(
    "seed = 0", "seed = 0\ncorrelation_n = 6\nphysical = true\nmc_orbits = 8\nu = xy\ng = cosy")


@pytest.mark.usefixtures("no_worker_left")
class TestCorrelationsBytes:
    """``correlations`` with ``physical = true`` writes the operator table,
    then the Birkhoff one, and leaves no child process.  The sha256 pins
    are the outputs of the version that ran the Birkhoff estimate in a
    forked worker, whose bytes were those of the inline call."""

    @pytest.mark.parametrize("text, seed, want_json, want_csv", [
        (CORR_TSUJII_16_CONFIG, 0,
         "732f564830abc671a9e766b9630bcae8f57eefdb0c954aad8bdf4ac874c5356e",
         "c7fa17f265246353210cb4ece3dc9c6d354d196499d88a5f2e95cfeff6f75edd"),
        (CORR_TSUJII_16_CONFIG, 1,
         "fd421da0bb1e955f3e7bba13fee02a713c0100b1a411091e08e0ca0c00c1ddb2",
         "ca748bf6fcec347e5034da90861cbfe29f5fc6fc81d7da6e8eb5c2f9f9be11e3"),
        (CORR_HOLDER05_12_CONFIG, 0,
         "6f6408acc44bbdb6d7312aa382c0ae6209a8b91ca7f87f4b3b583d521953067f",
         "2dad1d0c2259819f94545a003eb7f9cdf5a5a278900d7baa4faaa4b32bcacc78"),
    ], ids=["tsujii16-seed0", "tsujii16-seed1", "holder05-12-seed0"])
    def test_outputs_match_pinned_bytes(self, tmp_path, text, seed, want_json, want_csv):
        cfg, out = write_config(tmp_path, text)
        assert main(["correlations", "--config", str(cfg), "--seed", str(seed)]) == 0
        for name, want in (("correlations.json", want_json), ("correlations.csv", want_csv)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
        methods = [t["method"] for t in json.loads((out / "correlations.json").read_text())["tables"]]
        assert methods == ["operator", "birkhoff"]


@pytest.mark.usefixtures("no_worker_left")
class TestPrunedSinfNorms:
    """The gap estimate's Sinf norms (and the bound prefactor's) evaluate
    exact fiber norms only where a bound can reach the maximum; at
    zeta = 0.5 ``correlations.json`` is the bytes of a run that evaluates
    every cell."""

    def test_bytes_match_all_cells(self, tmp_path, monkeypatch):
        from conftest import sinf_norms_all_cells
        from ergodykit import transfer

        text = (HOLDER05_12_CONFIG.replace("base_cells = 12", "base_cells = 64")
                .replace("seed = 0", "seed = 0\ncorrelation_n = 4"))
        cfg, out = write_config(tmp_path, text)
        every = tmp_path / "every"
        assert main(["correlations", "--config", str(cfg)]) == 0
        monkeypatch.setattr(transfer, "_sinf_norms", sinf_norms_all_cells)
        monkeypatch.setattr(disint, "_sinf_norms", sinf_norms_all_cells)
        assert main(["correlations", "--config", str(cfg), "--out", str(every)]) == 0
        got, want = ((d / "correlations.json").read_text() for d in (out, every))
        gap = [json.dumps(json.loads(t)["gap"], indent=1, sort_keys=True) for t in (got, want)]
        assert gap[0] == gap[1]
        assert got == want
        assert (out / "correlations.csv").read_bytes() == (every / "correlations.csv").read_bytes()


class TestMeasureFileContract:
    """``equilibrium.json`` writes each cell's ``phi1`` as the mass of its
    fiber, and ``norms`` refuses a file whose ``phi1`` disagrees."""

    @pytest.mark.parametrize("name", [e.name for e in ergodykit.gallery()])
    def test_phi1_is_the_sum_of_each_fiber_in_file_order(self, tmp_path, name):
        text = (BASE_CONFIG.replace("doubling-linear", name)
                .replace("base_cells = 64", "base_cells = 12"))
        cfg, out = write_config(tmp_path, text)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        d = json.loads((out / "equilibrium.json").read_text())
        sums = [sum(w for _, w in f) for f in d["fibers"]]
        assert np.array(d["phi1"]).tobytes() == np.array(sums, dtype=float).tobytes()

    def test_phi1_disagreeing_with_its_fiber_exits_2(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        payload = json.loads((out / "equilibrium.json").read_text())
        payload["phi1"][5] *= 1.0 + 1e-6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "measure file schema mismatch" in err and "phi1[5]" in err and "cell 5" in err
        assert not (out / "norms.json").exists()


class TestExitCodes:
    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import ergodykit.cli as cli
        from ergodykit.dualnorm import NumericError

        def boom(*a, **k):
            raise NumericError("power iteration did not converge (100000 iterations)")

        monkeypatch.setattr(cli, "build_rpf", boom)
        cfg, _ = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw, where", [
        ("o_c0", "nan", r"bad\.cfg:5: value 'nan' is not finite"),
        ("o_c1", "1e308", "fiber image"),
    ])
    def test_non_finite_fiber_offset_exits_2(self, tmp_path, capsys, key, raw, where):
        text = (f"[system]\nbase = linear\nfiber = tsujii\nalpha = 0.5\n{key} = {raw}\n"
                "[discretization]\nbase_cells = 16\n[output]\ndirectory = {out}\n")
        cfg, _ = write_config(tmp_path, text, name="bad.cfg")
        assert main(["equilibrium", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert re.search(where, err)

    def test_atom_cap_below_two_exits_2(self, tmp_path, capsys):
        # a signed fiber keeps two atoms at any width, so cap 1 would never
        # stop doubling; the config is refused before anything runs
        text = (BASE_CONFIG.replace("gallery = doubling-linear", "gallery = tsujii")
                .replace("fiber_atom_cap = 64", "fiber_atom_cap = 1")
                .replace("base_cells = 64", "base_cells = 16"))
        cfg, _ = write_config(tmp_path, text, name="bad.cfg")
        assert main(["correlations", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"bad\.cfg:\d+: fiber_atom_cap must be >= 2", err)

    @pytest.mark.parametrize("field, value", [("phi1", float("nan")), ("ref_masses", -1.0)])
    def test_bad_measure_file_exits_2(self, tmp_path, capsys, field, value):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        payload = json.loads((out / "equilibrium.json").read_text())
        payload[field] = [value] * payload["n"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert field in err
        assert not (out / "norms.json").exists()

    @pytest.mark.parametrize("fiber", [[[0.5]], [[0.5, 1.0, 2.0]], 3])
    def test_malformed_fiber_pairs_exit_2(self, tmp_path, capsys, fiber):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        payload = json.loads((out / "equilibrium.json").read_text())
        payload["fibers"][0] = fiber
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1

    def test_overflowing_potential_exits_2(self, tmp_path, capsys):
        text = ("[system]\nbase = linear\nfiber = linear\npotential = constant\n"
                "value = 800\n[discretization]\nbase_cells = 16\n"
                "[output]\ndirectory = {out}\n")
        cfg, _ = write_config(tmp_path, text, name="bad.cfg")
        assert main(["equilibrium", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "exp(phi) is not finite" in err

    @pytest.mark.parametrize("t", ["1e308", "-1e308"])
    def test_overflowing_mp_potential_exits_2(self, tmp_path, capsys, t):
        text = ("[system]\nbase = mp\nalpha_mp = 0.5\nfiber = linear\n"
                f"potential = mp_geometric\nt = {t}\nzeta = 0.5\n"
                "[discretization]\nbase_cells = 16\n[output]\ndirectory = {out}\n")
        cfg, _ = write_config(tmp_path, text, name="bad.cfg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["equilibrium", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "not finite" in err

    def test_negative_seed_in_config_exits_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG.replace("seed = 0", "seed = -1"),
                              name="bad.cfg")
        assert main(["correlations", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert re.search(r"bad\.cfg:\d+: seed must be >= 0", err)

    @pytest.mark.parametrize("command, old, new", [
        # both fail before anything is allocated: numpy cannot index them
        ("equilibrium", "base_cells = 16", "base_cells = 10000000000000000000"),
        ("correlations", "seed = 0",
         "seed = 0\nphysical = true\nmc_burn_in = 100000000000000000000"),
    ])
    def test_integer_beyond_64_bits_exits_2(self, tmp_path, capsys, command, old, new):
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG.replace(old, new), name="bad.cfg")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert re.search(r"bad\.cfg:\d+: value '1000+' does not fit in 64 bits", err)

    def test_unaddressable_orbit_arrays_exit_3(self, tmp_path, capsys):
        # 2**62 fits in 64 bits, but the noise array of 2**62 steps does not
        # fit numpy's address space: refused before anything is allocated
        text = TSUJII_16_CONFIG.replace(
            "seed = 0", "seed = 0\nphysical = true\nmc_burn_in = 4611686018427387904")
        cfg, _ = write_config(tmp_path, text)
        assert main(["correlations", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert "more than numpy can address" in err

    def test_unaddressable_stencil_exits_3(self, tmp_path, capsys):
        # 2**62 cells fit in 64 bits, but their (deg, n, 2) stencil does not
        # fit numpy's address space: refused before anything is allocated
        text = TSUJII_16_CONFIG.replace("base_cells = 16", "base_cells = 4611686018427387904")
        cfg, _ = write_config(tmp_path, text)
        assert main(["equilibrium", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert "stencil is more than numpy can address" in err
        assert "Traceback" not in err

    def test_unaddressable_linear_base_exits_3(self, tmp_path):
        # 2**62 branches of a linear base: their stencil is refused before
        # the first Branch is built.  A new process, with a timeout and its
        # address space capped at 1 GB, because building them one by one
        # never returns
        text = HOLDER05_12_CONFIG.replace("l = 2", "l = 4611686018427387904")
        cfg, out = write_config(tmp_path, text)
        done = _fresh("-c", "import resource, sys; "
                      "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                      "from ergodykit.cli import main; sys.exit(main(sys.argv[1:]))",
                      "equilibrium", "--config", str(cfg), timeout=60)
        assert done.returncode == 3
        assert done.stderr == ("numeric failure: a (4611686018427387904, 12, 2) stencil "
                               "is more than numpy can address\n")

    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def exhausted(*a, **k):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "build_rpf", exhausted)
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: Unable to allocate 8.00 EiB for an array\n"

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["correlations", "--config", str(cfg), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "--seed: seed must be >= 0" in err


class TestGalleryCommand:
    def test_lists_entries(self, capsys):
        assert main(["gallery"]) == 0
        out = capsys.readouterr().out
        for name in ("doubling-linear", "mp-discontinuous",
                     "mp-geometric-holder", "tsujii"):
            assert name in out

    def test_seed_override(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--seed", "5"]) == 0


_FRESH_PRELUDE = """\
import sys

def scipy_loaded():
    return sorted({"scipy.optimize", "scipy.sparse"} & set(sys.modules))
"""


def _fresh(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a new interpreter with the package on its path (this process may
    already hold scipy)."""
    src = str(Path(ergodykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
    )


def _run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter and return its stdout.  The
    script can call ``scipy_loaded()``."""
    done = _fresh("-c", _FRESH_PRELUDE + textwrap.dedent(script))
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestModuleEntryPoint:
    """``python -m ergodykit`` is the command line of the installed script."""

    def test_gallery_exits_0(self):
        done = _fresh("-m", "ergodykit", "gallery")
        assert done.returncode == 0, done.stderr
        assert "tsujii:" in done.stdout

    def test_missing_config_exits_2(self):
        done = _fresh("-m", "ergodykit", "equilibrium")
        assert done.returncode == 2
        assert done.stderr.strip() == "error: --config is required"


class TestCollectorFreeze:
    """``main`` freezes the heap that exists when it is called, so that
    interpreter shutdown skips it, and changes nothing else of the collector."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_freezes_and_keeps_enabled_state(self, tmp_path, enabled):
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG)
        was_enabled = gc.isenabled()
        gc.unfreeze()
        (gc.enable if enabled else gc.disable)()
        try:
            assert gc.get_freeze_count() == 0
            assert main(["equilibrium", "--config", str(cfg)]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() > 0
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_cycle_made_after_main_is_collected(self, tmp_path):
        cfg, _ = write_config(tmp_path, TSUJII_16_CONFIG)
        assert main(["equilibrium", "--config", str(cfg)]) == 0

        class Node:
            pass

        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        assert ref() is not None
        gc.collect()
        assert ref() is None

    def test_fresh_interpreter_writes_same_bytes(self, tmp_path):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        fresh_out = tmp_path / "fresh"
        done = _fresh("-m", "ergodykit", "equilibrium", "--config", str(cfg),
                      "--out", str(fresh_out))
        assert done.returncode == 0, done.stderr
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in fresh_out.iterdir())
        assert len(names) == 4
        for name in names:
            assert (fresh_out / name).read_bytes() == (out / name).read_bytes(), name


class TestImportFootprint:
    """No run solves an LP, so none pays for importing scipy; the oracle does.
    No command loads ``numpy.random``: every seeded draw comes from the
    standard library's ``random.Random`` (``measures.seeded``)."""

    def test_import_loads_no_scipy(self):
        out = _run_fresh("import ergodykit, ergodykit.cli\nprint(scipy_loaded())")
        assert out.strip() == "[]"

    def test_zeta_one_equilibrium_loads_no_scipy(self, tmp_path):
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        got = _run_fresh(f"""
            from ergodykit import cli
            rc = cli.main(["equilibrium", "--config", {str(cfg)!r}])
            print(rc, scipy_loaded())
        """)
        assert got.strip() == "0 []"
        assert len((out / "convergence.csv").read_text().splitlines()) == 1 + 3

    def test_zeta_half_regularity_loads_no_scipy(self, tmp_path):
        cfg, out = write_config(tmp_path, HOLDER05_12_CONFIG)
        got = _run_fresh(f"""
            from ergodykit import cli
            rc = cli.main(["regularity", "--config", {str(cfg)!r}])
            print(rc, scipy_loaded())
        """)
        assert got.strip() == "0 []"
        assert json.loads((out / "regularity.json").read_text())["satisfied"] is True

    def test_zeta_half_regularity_loads_no_numpy_random(self, tmp_path):
        # nothing that regularity computes draws random numbers: the kernel
        # decay's test vectors are drawn only where convergence.json is written
        cfg, out = write_config(tmp_path, HOLDER05_12_CONFIG)
        got = _run_fresh(f"""
            from ergodykit import cli
            rc = cli.main(["regularity", "--config", {str(cfg)!r}])
            print(rc, "numpy.random" in sys.modules)
        """)
        assert got.strip() == "0 False"
        assert (out / "regularity.json").exists()

    def test_equilibrium_loads_no_numpy_random(self, tmp_path):
        # convergence.json's kernel decay draws its test vectors from the
        # standard library's random.Random
        cfg, out = write_config(tmp_path, TSUJII_16_CONFIG)
        got = _run_fresh(f"""
            from ergodykit import cli
            rc = cli.main(["equilibrium", "--config", {str(cfg)!r}])
            print(rc, "numpy.random" in sys.modules)
        """)
        assert got.strip() == "0 False"
        assert json.loads((out / "convergence.json").read_text())["r_hat"] > 0.0

    def test_no_command_loads_numpy_random(self, tmp_path):
        # every command in one interpreter; the Birkhoff estimate of
        # correlations (physical = true) reports after its draws, from the
        # CLI's own process
        eq_cfg, eq_out = write_config(tmp_path, TSUJII_16_CONFIG, "eq.cfg", tmp_path / "eq")
        reg_cfg, _ = write_config(tmp_path, HOLDER05_12_CONFIG, "reg.cfg", tmp_path / "reg")
        corr_cfg, corr_out = write_config(tmp_path, CORR_TSUJII_16_CONFIG, "corr.cfg",
                                          tmp_path / "corr")
        seen = tmp_path / "seen.txt"
        got = _run_fresh(f"""
            import os
            from ergodykit import cli
            real = cli.correlation_birkhoff

            def spy(*args, **kwargs):
                table = real(*args, **kwargs)
                with open({str(seen)!r}, "w") as fh:
                    print(os.getpid(), "numpy.random" in sys.modules, file=fh)
                return table

            cli.correlation_birkhoff = spy
            eq = ["--config", {str(eq_cfg)!r}]
            rcs = [
                cli.main(["equilibrium", *eq]),
                cli.main(["regularity", "--config", {str(reg_cfg)!r}]),
                cli.main(["correlations", "--config", {str(corr_cfg)!r}]),
                cli.main(["verify", *eq]),
                cli.main(["norms", *eq, "--measure", {str(eq_out / "equilibrium.json")!r}]),
                cli.main(["gallery"]),
            ]
            print(*rcs, "numpy.random" in sys.modules, os.getpid())
        """)
        *rcs, loaded, cli_pid = got.splitlines()[-1].split()
        birkhoff_pid, loaded_by_birkhoff = seen.read_text().split()
        assert (rcs, loaded, loaded_by_birkhoff) == (["0"] * 6, "False", "False")
        assert birkhoff_pid == cli_pid
        tables = json.loads((corr_out / "correlations.json").read_text())["tables"]
        assert [t["method"] for t in tables] == ["operator", "birkhoff"]
        assert (eq_out / "hypothesis_report.json").exists()
        assert (eq_out / "norms.json").exists()

    def test_lp_oracle_loads_scipy(self):
        got = _run_fresh("""
            from ergodykit import dualnorm
            from ergodykit.measures import AtomicSignedMeasure
            pos, w = [0.2, 0.7], [1.0, -0.6]
            value = dualnorm.dual_norm(AtomicSignedMeasure(pos, w), 0.5)
            before = scipy_loaded()
            oracle = dualnorm._dual_norm_lp(AtomicSignedMeasure(pos, w), 0.5)[0]
            print(before == [], scipy_loaded() == ["scipy.optimize", "scipy.sparse"],
                  value, oracle)
        """)
        before_clean, after_loaded, value, oracle = got.split()
        assert (before_clean, after_loaded) == ("True", "True")
        assert float(value) == pytest.approx(float(oracle), abs=1e-9)
