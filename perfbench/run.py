"""beamdiv benchmark: one seeded workload per run, checked, timed, and optionally traced.

    python3 perfbench/run.py --workload pass_fine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; beamdiv is imported from ``src/``.
With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Lines before it print every metric by name and unit.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOAD_NAMES = ("pass_fine", "pass_batch", "design_bench")
SETUP_SAMPLES = 11         # fresh processes timed for setup_s, one after each early round; the median is reported
PROBE_TIMEOUT_S = 60
# Rounds are reported at the machine speed where the reference work takes this long.
REFERENCE_NOMINAL_S = 0.01


def reference_seconds() -> float:
    """Time of a fixed piece of Python and numpy work: the machine's current speed.

    The host's cores are shared, and their speed drifts by tens of percent
    over seconds to minutes.  The reference work slows with them, so a
    round's time divided by the reference time measured around it is steady
    where the round's raw time is not.  The work mixes what the workloads
    do: small-object allocation, dict and float arithmetic, float repr and
    a vectorized special function.  Median of seven, to skip a momentary
    stall.
    """
    import numpy as np
    from scipy.special import j0

    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc, table, rows = 0.0, {}, []
        for i in range(17000):
            table[i & 255] = (acc, i)
            acc += (i % 7) * 0.5
            rows.append((acc, i * 1e-7))
        ",".join(repr(a * b) for a, b in rows[::4])
        # No BLAS call: its worker threads would spin on, beside the next round or probe.
        float(j0(np.linspace(0.0, 100.0, 50000)).sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _cap_native_threads() -> None:
    # Must run before numpy is imported; children inherit the environment.
    cores = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def _workdir(workload: str, tag: str) -> str:
    path = os.path.join(RUN_DIR, f"{workload}-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _make_workload(name: str, seed: int, workdir: str, on_op=lambda op_id: None):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, on_op)


def probe(workload: str, seed: int, memory: bool) -> None:
    """Fresh process: time set-up, that is importing beamdiv, building the
    inputs and one warm-up call per layer.  With ``memory``, then run one
    round with the checks off and report the process's peak resident memory,
    so that it is the program's and not the checks'."""
    t0 = time.perf_counter()
    import beamdiv  # noqa: F401  (the import is part of what is timed)

    workdir = _workdir(workload, "probe")
    try:
        wl = _make_workload(workload, seed, workdir)
        wl.warm_up()
        out = {"setup_s": time.perf_counter() - t0}
        if memory:
            wl.checking = False
            wl.run_round()
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def run_probe(workload: str, seed: int, memory: bool = False) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv + (["--probe-memory"] if memory else []),
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import SpanStats, Tracer, per_layer

    setups, peak_mb = [], None
    if not trace:
        first = run_probe(workload, seed, memory=True)
        setups.append(first["setup_s"])
        peak_mb = first["peak_rss_mb"]

    tracer = Tracer() if trace else None
    workdir = _workdir(workload, "run")
    try:
        if tracer:
            tracer.install()
        wl = _make_workload(workload, seed, workdir, on_op=(lambda op_id: setattr(tracer, "current_op", op_id))
                            if tracer else (lambda op_id: None))
        wl.warm_up()
        if tracer:
            tracer.slewing_steps = 0
        walls, adjusted, rates = [], [], []
        refs = [reference_seconds()]
        ref_before = refs[0]
        probe_s = 0.0           # time in set-up probes, kept out of the measuring window
        t_start = time.perf_counter()
        while (not walls or time.perf_counter() - t_start - probe_s < seconds
               or (not trace and len(setups) < SETUP_SAMPLES)):
            wall, r = wl.run_round()
            refs.append(reference_seconds())
            walls.append(wall)
            adjusted.append(wall * REFERENCE_NOMINAL_S / (0.5 * (ref_before + refs[-1])))
            rates.append(r)
            ref_before = refs[-1]
            if not trace and len(setups) < SETUP_SAMPLES:
                t_probe = time.perf_counter()
                setups.append(run_probe(workload, seed)["setup_s"])
                ref_before = reference_seconds()
                probe_s += time.perf_counter() - t_probe
        if tracer:
            tracer.uninstall()
            tracer.write(os.path.join(RUN_DIR, f"trace-{workload}-seed{seed}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(adjusted)
    speed = REFERENCE_NOMINAL_S / statistics.median(refs)
    info = {key: statistics.median(r[key] for r in rates) for key in rates[0]}
    info["raw_wall_s"] = statistics.median(walls)
    if tracer:
        metrics = per_layer(SpanStats(tracer), tracer, rounds=len(walls), wall_s=wall_s, speed=speed)
    else:
        info["raw_setup_s"] = statistics.median(setups)
        metrics = {
            # The set-up processes ran between the rounds, so the run's median reference is their machine speed.
            "setup_s": {"value": info["raw_setup_s"] * speed, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {
        "rounds": len(walls),
        "info": info,
        "result": {
            "correct": wl.correct,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": metrics,
        },
    }


def print_report(workload: str, seed: int, report: dict) -> None:
    from workloads import INFO_UNITS

    res = report["result"]
    print(f"# {workload} seed={seed} rounds={report['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for name, value in report["info"].items():
        print(f"{name:44s} {value:>16.6g} {INFO_UNITS[name]}")
    print(json.dumps(res))


def run_all(seed: int, seconds: int, trace: int) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "beamdiv", "__init__.py")):
        print(f"error: no beamdiv sources under {SRC}; run from a beamdiv checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    _cap_native_threads()
    sys.path.insert(0, SRC)
    if args.probe:
        probe(args.workload, args.seed, args.probe_memory)
        return 0
    print_report(args.workload, args.seed, run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
