"""Print SHA-256 digests of beamdiv's seeded outputs, to show that a change leaves them byte for byte.

Run from the root of a source checkout, once for each tree, and compare::

    python3 tools/output_digests.py > after.json
    python3 tools/output_digests.py --checkout ../parent > before.json
    diff before.json after.json

The code under test is ``<checkout>/src`` (default: this checkout).  The
inputs come from this tree's ``perfbench/inputs.py``, so both trees get the
same ones.  The outputs are:

- ``simulate`` with no config and with each ``demos/configs`` file: the CSV and the summary;
- ``simulate --out`` on the 96 ``pass_batch`` configs of seed 3: each CSV and summary;
- the ``pass_fine`` pass of seeds 1-3 through ``run_pass`` and ``write_steps_csv``:
  the CSV and the summary;
- ``emulate`` on a script of commands and steps, as CSV and as JSON;
- ``budget`` at both design points and ``optimize`` at a 20 urad sigma
  against the 90 urad reference, each as a table and as JSON;
- ``calibrate`` on each bench campaign of ``perfbench/inputs.py``'s
  ``design_bench`` inputs of seed 51, run from their directory with relative
  paths, so that the table's provenance names no temporary directory;
- the standard output of every demo, each run in a fresh interpreter with
  matplotlib hidden, so that no demo plots and its text is the same whether
  matplotlib is installed or not.

The result is one JSON object, output name to hex digest, on standard output.
``tests/golden/digests.json`` is this output for this tree, written with::

    python3 tools/output_digests.py > tests/golden/digests.json

and the tier-1 suite checks the digests of the demo, ``emulate``, ``budget``,
``optimize`` and ``calibrate`` outputs against it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# Slews, an arrival on the collimated point from the converging side (target
# -0.0), a step too short to leave the grid point, and the thermal and
# chromatic commands between steps.
EMULATOR_SCRIPT = """\
set-divergence 1.45e-3
step 0.01
step 0.01
step 0.01
step 0.05
set-divergence 90e-6 converging
step 0.5
step 0.01
set-divergence 2.3e-3 converging
step 5e-5
step 0.02
set-temperature -30
set-divergence 6.14e-3 diverging
step 0.3
query
set-wavelength 1.53e-6
steer 1e-5 -2e-5
step 0.9
"""

# The budget at the two design points, and the optimum at a 20 urad sigma against the collimated beam;
# each is digested as a table and as JSON.
REPORT_ARGS = [
    ["budget", "--distance", "600e3", "--rate", "10e9"],
    ["budget", "--distance", "1200e3", "--rate", "2.5e9"],
    ["optimize", "--sigma", "20e-6", "--reference-divergence", "90e-6"],
]
CALIBRATION_SEED = 51

# Runs the script named by the first argument as __main__, with ``import matplotlib`` failing.
RUN_WITHOUT_MATPLOTLIB = (
    "import runpy, sys; sys.modules['matplotlib'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"
)


def sha256(text) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def calibrate_argv(campaign) -> list:
    """``calibrate`` on a bench campaign's four files, named relative to their directory."""
    kinds = ("positions", "profiler", "thermal", "chromatic")
    return ["calibrate", *(arg for kind in kinds for arg in (f"--{kind}", os.path.basename(getattr(campaign, kind))))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=HERE, help="source checkout whose src/ runs")
    checkout = parser.parse_args().checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(HERE / "perfbench")]
    import beamdiv.cli
    import inputs
    import workloads
    from beamdiv import sim

    digests = {}

    def cli(name, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = beamdiv.cli.main(argv)
        if code != 0:
            raise SystemExit(f"beamdiv {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        digests[name] = sha256(out.getvalue())
        if err.getvalue():  # simulate without --out writes its summary here
            digests[f"{name} stderr"] = sha256(err.getvalue())

    with tempfile.TemporaryDirectory() as tmp:
        cli("simulate", ["simulate"])
        for config in sorted((checkout / "demos" / "configs").iterdir()):
            cli(f"simulate {config.name}", ["simulate", "--config", str(config)])

        for cfg in inputs.pass_batch(3, tmp):
            name = os.path.basename(cfg.path)
            cli(f"pass_batch {name} summary", ["simulate", "--config", cfg.path, "--out", cfg.path + ".csv"])
            digests[f"pass_batch {name} csv"] = sha256(Path(cfg.path + ".csv").read_bytes())

        link = workloads.design_link()
        for seed in (1, 2, 3):
            fine = workloads.PassFine(seed, tmp, on_op=None)
            result = sim.run_pass(fine.geometry, fine.policy, link, jitter=fine.inp.jitter, seed=seed,
                                  state=fine._state())
            sim.write_steps_csv(result.steps, fine.csv_path)
            digests[f"pass_fine {seed} csv"] = sha256(Path(fine.csv_path).read_bytes())
            digests[f"pass_fine {seed} summary"] = sha256(json.dumps(result.summary))

        script = Path(tmp) / "emulator.txt"
        script.write_text(EMULATOR_SCRIPT)
        for fmt in ("csv", "json"):
            cli(f"emulate {fmt}", ["emulate", "--script", str(script), "--format", fmt])

        for argv in REPORT_ARGS:
            for fmt in ("table", "json"):
                cli(" ".join([*argv, fmt]), [*argv, "--format", fmt])

        home = os.getcwd()
        os.chdir(tmp)
        try:
            for k, campaign in enumerate(inputs.design_bench(CALIBRATION_SEED, tmp).campaigns):
                cli(f"calibrate campaign{k}", calibrate_argv(campaign))
        finally:
            os.chdir(home)

        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        for demo in sorted((checkout / "demos").glob("*.py")):
            run = subprocess.run([sys.executable, "-c", RUN_WITHOUT_MATPLOTLIB, str(demo)], cwd=tmp, env=env,
                                 capture_output=True, check=True)
            digests[f"demo {demo.name}"] = sha256(run.stdout)

    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
