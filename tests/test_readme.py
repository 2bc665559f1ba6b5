"""The README's library quickstart runs, and the README documents the whole export list."""

from __future__ import annotations

import re
from pathlib import Path

import gga_verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_quickstart_runs() -> None:
    section = README.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})


def test_every_exported_name_imports_and_is_documented() -> None:
    namespace: dict[str, object] = {}
    exec("from gga_verify import *", namespace)
    for name in gga_verify.__all__:
        assert name in namespace, name
        assert re.search(rf"`{name}\b", README), name
