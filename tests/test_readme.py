"""The library as README.md shows it: the quick start runs as written, and
``from specbeta import *`` binds the public names, not the submodules."""

import re
import types
from pathlib import Path

import specbeta

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_all_lists_no_module():
    assert "run" in specbeta.__all__ and "CovarianceModel" in specbeta.__all__
    assert [name for name in specbeta.__all__
            if isinstance(getattr(specbeta, name), types.ModuleType)] == []
    namespace = {}
    exec("from specbeta import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(specbeta.__all__)
