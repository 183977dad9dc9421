"""Every demo runs to the end, and writes its files only into its working directory."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _listing():
    return {path: sorted(p.name for p in path.iterdir()) for path in (DEMOS.parent, DEMOS, DEMOS / "configs")}


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs_and_writes_only_to_cwd(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = _listing()
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert _listing() == before
    for name in re.findall(r"^(?:wrote|saved) (\S+)$", out, flags=re.MULTILINE):
        assert (tmp_path / name).is_file()
