"""Start-up cost: the package loads lazily and each subcommand loads only its own engines.

Each probe runs in a fresh interpreter and reports the modules that its code
loaded beyond those the interpreter had already loaded at start.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import gga_verify

ENGINES = {f"gga_verify.{name}" for name in ("hilbert", "monomial", "partitions", "recursion")}


def loaded_by(code: str) -> set[str]:
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())  # a command's own output comes first


GAP_ONLY = ({"partitions"}, {"hilbert", "monomial", "recursion"})

# argv, the engine modules it must load, and those it must not load.
CASES = [
    pytest.param(("series", "e", "--r", "3", "--i", "2", "--N", "10"), *GAP_ONLY, id="series e"),
    pytest.param(("count", "c", "--r", "2", "--i", "1", "--n", "5"), *GAP_ONLY, id="count c"),
    pytest.param(("count", "d", "--r", "2", "--i", "1", "--n", "5"), *GAP_ONLY, id="count d"),
    pytest.param(("count", "e", "--r", "2", "--i", "1", "--n", "5"), *GAP_ONLY, id="count e"),
    pytest.param(
        ("hilbert", "--family", "Lk", "--k", "3", "--r", "2", "--N", "8"),
        {"hilbert", "monomial", "qseries"},
        {"partitions", "recursion"},
        id="hilbert",
    ),
    pytest.param(("series", "c", "--r", "2", "--index", "3", "--N", "8"), {"recursion"}, set(), id="series c"),
    pytest.param(("verify", "--r", "2", "--N", "8"), {"context", "recursion"}, set(), id="verify"),
    pytest.param(("--help",), set(), {"context", "qseries", "hilbert", "monomial", "partitions", "recursion"},
                 id="help"),
]


@pytest.mark.parametrize(("argv", "loads", "skips"), CASES)
def test_subcommand_loads_only_its_engines(argv: tuple[str, ...], loads: set[str], skips: set[str]) -> None:
    loaded = loaded_by(f"import io\nfrom gga_verify import cli\ncli.run({list(argv)!r}, stdout=io.StringIO())")
    assert {f"gga_verify.{name}" for name in loads} <= loaded
    assert not {f"gga_verify.{name}" for name in skips} & loaded
    assert "dataclasses" not in loaded


def test_bare_import_loads_no_submodule() -> None:
    loaded = loaded_by("import gga_verify")
    assert "gga_verify" in loaded
    assert not {name for name in loaded if name.startswith("gga_verify.")}
    assert not ENGINES & loaded_by("import gga_verify.cli")


def test_no_path_loads_dataclasses() -> None:
    loaded = loaded_by("from gga_verify import *\nfrom gga_verify import cli, context, monomial, qseries")
    assert ENGINES <= loaded
    assert "dataclasses" not in loaded


def test_every_export_resolves_to_its_home_module() -> None:
    for name in gga_verify.__all__:
        value = getattr(gga_verify, name)
        assert value.__module__.startswith("gga_verify."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_attribute_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        gga_verify.no_such_name  # noqa: B018
    assert not hasattr(gga_verify, "Monomial")
