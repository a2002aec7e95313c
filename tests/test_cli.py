import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import ergodykit
from ergodykit.cli import main, parse_config, ConfigError

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


    def test_reports_realized_width(self, tmp_path):
        # one atom per cell never doubles: the bound is delta**zeta
        cfg, out = write_config(tmp_path)
        assert main(["equilibrium", "--config", str(cfg)]) == 0
        conv = json.loads((out / "convergence.json").read_text())
        assert conv["realized_delta_max"] == conv["compress_delta"]
        assert conv["compress_error_bound"] == conv["compress_delta"]


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

    def test_unit_mass_fiber_file_matches_restriction_file(self, tmp_path):
        # files with "normalized": true store phi1[j] times unit-mass fibers
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
        norms = []
        for name, payload in (("unit", unit), ("restr", restr)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            assert main(["norms", "--config", str(cfg), "--measure", str(path),
                         "--out", str(out / name)]) == 0
            norms.append(json.loads((out / name / "norms.json").read_text()))
        assert norms[0]["l1"] > 0.0
        for key in ("l1", "linf", "s1", "sinf"):
            assert norms[0][key] == pytest.approx(norms[1][key], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("text", [TSUJII_16_CONFIG, BASE_CONFIG.replace(
        "doubling-linear", "mp-geometric-holder").replace("base_cells = 64", "base_cells = 24")])
    def test_bytes_match_per_cell_reader(self, tmp_path, text):
        # norms.json of a written equilibrium, and of the same measure as a
        # "normalized": true file, equal the norms of the per-cell reader's measure
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
            assert main(["norms", "--config", str(cfg), "--measure", str(path),
                         "--out", str(out / name)]) == 0
            dm = from_dict_per_cell(payload)
            dm_nu, dm_m = convert_reference(dm, rpf, "nu"), convert_reference(dm, rpf, "m")
            _write_json(tmp_path / f"{name}-ref.json", {
                "l1": l1_norm(dm_nu), "linf": linf_norm(dm_m), "s1": s1_norm(dm_nu),
                "sinf": sinf_norm(dm_m), "zeta": dm.zeta,
            })
            assert (out / name / "norms.json").read_bytes() == \
                (tmp_path / f"{name}-ref.json").read_bytes()

    def test_schema_mismatch_exit_2(self, tmp_path):
        cfg, out = write_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["norms", "--config", str(cfg), "--measure", str(bad)]) == 2

    def test_missing_measure_flag(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        assert main(["norms", "--config", str(cfg)]) == 2


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


def _run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter with the package on its path (this
    process may already hold scipy) and return its stdout.  The script can
    call ``scipy_loaded()``."""
    src = str(Path(ergodykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PRELUDE + textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    """No run solves an LP, so none pays for importing scipy; the oracle does."""

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
