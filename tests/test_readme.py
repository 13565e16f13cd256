"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    kinds = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert kinds == ["gal", "tt", "mtt"]
