"""The library quick start in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
