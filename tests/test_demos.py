"""Every demo runs to the end, and writes its files only into its working directory.

The demos, and the ``emulate``, ``budget``, ``optimize`` and ``calibrate``
commands that ``tools/output_digests.py`` runs, also print the text whose
digests ``tests/golden/digests.json`` records; the tool is the manifest's one
writer.  Only these outputs are checked against it: they are the same bytes
when numpy's SIMD dispatch is narrowed to AVX2
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``), where the pass
outputs are not.  Their keys are ``demo <name>.py`` for the six demos,
``emulate csv`` and ``emulate json``, ``budget --distance 600e3 --rate 10e9``
and ``budget --distance 1200e3 --rate 2.5e9``, each followed by ``table`` or
``json``, ``optimize --sigma 20e-6 --reference-divergence 90e-6`` followed by
``table`` or ``json``, and ``calibrate campaign0`` to ``calibrate campaign7``.
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
BENCH_INPUTS = runpy.run_path(str(ROOT / "perfbench" / "inputs.py"))
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


def _digest_of_stdout(argv, capsys):
    assert main(argv) == 0
    return TOOL["sha256"](capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", TOOL["REPORT_ARGS"], ids=" ".join)
def test_budget_and_optimize_print_their_recorded_text(argv, fmt, capsys):
    assert _digest_of_stdout([*argv, "--format", fmt], capsys) == GOLDEN[" ".join([*argv, fmt])]


@pytest.fixture(scope="module")
def bench_campaigns(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    return workdir, BENCH_INPUTS["design_bench"](TOOL["CALIBRATION_SEED"], str(workdir)).campaigns


@pytest.mark.parametrize("k", range(8))
def test_calibrate_prints_its_recorded_table(k, bench_campaigns, monkeypatch, capsys):
    # Relative names, as the tool runs it: the provenance then names no temporary directory.
    workdir, campaigns = bench_campaigns
    monkeypatch.chdir(workdir)
    assert _digest_of_stdout(TOOL["calibrate_argv"](campaigns[k]), capsys) == GOLDEN[f"calibrate campaign{k}"]
