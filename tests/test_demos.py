"""Every demo runs to the end, and writes its files only into its working directory.

The demos and the emulator script of ``tools/output_digests.py`` also print
the text whose digests ``tests/golden/digests.json`` records; the tool is the
manifest's one writer.  Only these outputs are checked against it: they are
the same bytes when numpy's SIMD dispatch is narrowed to AVX2, where the pass
outputs are not.
"""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from beamdiv.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
TOOL = runpy.run_path(str(ROOT / "tools" / "output_digests.py"))
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "digests.json").read_text())


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


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_prints_its_recorded_text(demo, tmp_path, monkeypatch, capsys):
    # The manifest holds the text without plots: matplotlib is hidden, as the tool hides it.
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert TOOL["sha256"](capsys.readouterr().out) == GOLDEN[f"demo {demo.name}"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emulator_script_prints_its_recorded_trace(fmt, tmp_path, capsys):
    script = tmp_path / "emulator.txt"
    script.write_text(TOOL["EMULATOR_SCRIPT"])
    assert main(["emulate", "--script", str(script), "--format", fmt]) == 0
    assert TOOL["sha256"](capsys.readouterr().out) == GOLDEN[f"emulate {fmt}"]
