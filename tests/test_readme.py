"""The README's code runs as written, so that no API change leaves it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_verbatim(capsys):
    block = re.search(r"Quick start:\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no quick-start code block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["report"].converged
    rate, mean_y = map(float, capsys.readouterr().out.split())
    assert 0.0 < rate < 1.0 and abs(mean_y - 0.5) < 2e-3


def test_config_example_parses(tmp_path):
    from ergodykit.cli import build_system, parse_config

    block = re.search(r"The configuration is a flat .*?```ini\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no config example"
    path = tmp_path / "readme.ini"
    path.write_text(block.group(1))
    cfg = parse_config(path)
    assert cfg.base_cells == 512 and cfg.fiber_atom_cap == 64 and cfg.tol == 1e-8
    assert build_system(cfg).name == "tsujii"
