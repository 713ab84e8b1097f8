"""The public surface: what `coxkit` exports and the README's library example."""

import re
from pathlib import Path

import coxkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve_once():
    assert len(coxkit.__all__) == len(set(coxkit.__all__))
    missing = [name for name in coxkit.__all__ if not hasattr(coxkit, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})
    printed = capsys.readouterr().out
    assert "CPH C-index:" in printed
    assert "deep C-index:" in printed
