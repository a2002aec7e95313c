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
