"""Self-test of the independent checks: each one must reject a perturbed output.

    python3 perfbench/selftest.py

Runs beamdiv on small inputs, confirms that the checks accept its outputs,
then perturbs one output at a time and confirms that the named check fails.
Exits non-zero if a check accepts a perturbed output or rejects a clean one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from beamdiv import actuator, beam_optics, pointing, sim  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def _pass_output(spec: checks.PassSpec, policy: sim.ControlPolicy) -> tuple[dict, dict]:
    state = actuator.ActuatorState()
    actuator.set_temperature(state, spec.temperature_c)
    geometry = sim.PassGeometry(altitude_m=spec.altitude_m, max_elevation_deg=spec.max_elevation_deg,
                                max_range_m=spec.max_range_m, dt_s=spec.dt_s)
    result = sim.run_pass(geometry, policy, workloads.design_link(), jitter=spec.sigma, state=state)
    return checks.parse_pass_csv(sim.steps_to_csv(result.steps)), dict(result.summary)


def _pass_cases() -> list[tuple[str, str, object]]:
    """(expected check, description, failures of the perturbed output)."""
    n = inputs.pass_ticks(600e3, 1200e3, 0.1)
    sigma = np.full(n, 25e-6)
    sigma[n // 3: n // 2] = 400e-6
    spec = checks.PassSpec(600e3, 1200e3, 0.1, -12.0, sigma)
    rows, summary = _pass_output(spec, sim.ControlPolicy(margin_floor_db=5.0))
    cases = [("", "clean continuous pass", checks.check_pass(rows, summary, spec))]

    # Ticks classified the way the checks do: slewing and arrived.
    a, b = checks.thermal_line(spec.temperature_c)
    x = ((rows["theta_actual_rad"] - b) / a - checks.COLLIMATED_RAD) / checks.DIVERGING_SLOPE
    need = (rows["theta_commanded_rad"] - checks.COLLIMATED_RAD) / checks.DIVERGING_SLOPE - np.r_[0.0, x[:-1]]
    slewing = int(np.flatnonzero(np.abs(need) > checks.LENS_SPEED_M_PER_S * spec.dt_s * 1.01)[0])
    arrived = 10

    def perturb(column: str, index: int, fn) -> dict:
        out = {k: v.copy() for k, v in rows.items()}
        out[column][index] = fn(out[column][index])
        return out

    for name, column, index, fn in (
        ("jitter", "sigma_p_rad", 5, lambda v: v * 1.01),
        ("geometry", "slant_range_m", 7, lambda v: v * (1 + 1e-6)),
        ("policy", "theta_commanded_rad", arrived, lambda v: v * (1 + 1e-9)),
        ("pointing", "pointing_loss_db", arrived, lambda v: v * (1 + 1e-9)),
        ("thermal", "theta_actual_rad", arrived, lambda v: v * (1 + 1e-6)),
        ("lens_speed", "theta_actual_rad", slewing, lambda v: rows["theta_commanded_rad"][slewing]),
        ("rate", "rate_bps", arrived, lambda v: v * (1 + 1e-7)),
        ("margin", "margin_db", arrived, lambda v: v + 0.01),
    ):
        cases.append((name, f"{column}[{index}] perturbed", checks.check_pass(perturb(column, index, fn), summary, spec)))
    for key, fn in (("ticks", lambda v: v + 1), ("total_bits", lambda v: v * (1 + 1e-9))):
        bad = dict(summary, **{key: fn(summary[key])})
        cases.append(("summary", f"summary {key} perturbed", checks.check_pass(rows, bad, spec)))

    # Rate ladder at a sub-90 deg peak elevation.
    spec = checks.PassSpec(650e3, 1100e3, 1.0, 20.0, np.full(inputs.pass_ticks(650e3, 1100e3, 1.0, 80.0), 40e-6),
                           max_elevation_deg=80.0, ladder=inputs.RATE_LADDER_BPS, floor_db=4.0)
    rows, summary = _pass_output(spec, sim.ControlPolicy(margin_floor_db=4.0, rate_ladder_bps=inputs.RATE_LADDER_BPS))
    cases.append(("", "clean ladder pass", checks.check_pass(rows, summary, spec)))
    live = int(np.flatnonzero(rows["rate_bps"] > inputs.RATE_LADDER_BPS[0])[0])
    lower = max(r for r in inputs.RATE_LADDER_BPS if r < rows["rate_bps"][live])
    cases.append(("ladder", "rate off the ladder", checks.check_pass(perturb("rate_bps", live, lambda v: v * 1.1), summary, spec)))
    cases.append(("ladder", "rung below the best", checks.check_pass(perturb("rate_bps", live, lambda v: lower), summary, spec)))
    return cases


def _design_cases(workdir: str) -> list[tuple[str, str, object]]:
    d = 0.02
    ratios = np.array([0.8, 1.5, 3.2, 3.8])
    wavelengths = np.array([1.52e-6, 1.58e-6])
    fwhm = np.array([[beam_optics.truncated_fwhm(beam_optics.AperturedBeam(beam_optics.GaussianBeam(d / r, w), d)).value
                      for w in wavelengths] for r in ratios])
    cases = [("", "clean FWHM grid", checks.check_fwhm_grid(ratios, wavelengths, fwhm, d))]
    for name, fn in (
        ("fwhm_airy", lambda f: np.vstack([1.02 * wavelengths / d, f[1:]])),
        ("fwhm_monotone", lambda f: f[[1, 0, 2, 3]]),
        ("fwhm_gaussian", lambda f: np.vstack([f[:3], f[3:] * 1.002])),
        ("fwhm_scaling", lambda f: f * np.array([1.0, 1.0 + 1e-6])),
    ):
        cases.append((name, "FWHM grid perturbed", checks.check_fwhm_grid(ratios, wavelengths, fn(fwhm.copy()), d)))

    ratio, wl = 1.5, 1.55e-6
    angles = np.linspace(0.0, 4.0 * wl / d, 200)
    profile = beam_optics.farfield_intensity(beam_optics.AperturedBeam(beam_optics.GaussianBeam(d / ratio, wl), d), angles)
    cases.append(("", "clean profile", checks.check_profile(angles, profile, ratio, wl, d)))
    for name, index, value in (("profile_axis", 0, 0.999), ("profile_bounds", 50, 1.01),
                               ("profile_quadrature", -1, profile[-1] + 1e-6)):
        bad = profile.copy()
        bad[index] = value
        cases.append((name, f"profile[{index}] perturbed", checks.check_profile(angles, bad, ratio, wl, d)))

    sig = np.array([1e-6, 3e-5, 1e-3])
    conv = pointing.GainConvention.LINEAR
    exact = np.array([pointing.optimal_divergence(s, conv) for s in sig])
    swept = np.array([pointing.sweep_optimal_divergence(s, conv, 1e-7, 1e-1) for s in sig])
    cases.append(("", "clean optimizer", checks.check_optimizer(sig, "linear", exact, swept)))
    cases.append(("optimizer_closed_form", "exact perturbed", checks.check_optimizer(sig, "linear", exact * (1 + 1e-9), swept)))
    cases.append(("optimizer_sweep", "sweep perturbed", checks.check_optimizer(sig, "linear", exact, swept * (1 + 1e-5))))

    campaign = inputs.design_bench(7, workdir).campaigns[0]
    workloads.run_cli(["calibrate", "--positions", campaign.positions, "--profiler", campaign.profiler,
                       "--thermal", campaign.thermal, "--chromatic", campaign.chromatic, "--out", campaign.out])
    with open(campaign.out) as fh:
        table = json.load(fh)
    cases.append(("", "clean calibration", checks.check_calibration(json.dumps(table), campaign)))
    for name, edit in (
        ("calibration_gate", lambda t: t["position"].update(passed=False)),
        ("calibration_diverging_slope", lambda t: t["position"].update(
            diverging_slope_rad_per_m=t["position"]["diverging_slope_rad_per_m"] * 1.001)),
        ("calibration_profiler_divergence", lambda t: t["provenance"]["profiler"].update(
            divergence_full_1e2_rad=t["provenance"]["profiler"]["divergence_full_1e2_rad"] * 1.1)),
        ("calibration_thermal_cold0", lambda t: t["thermal"]["cold_outputs_rad"].__setitem__(
            0, t["thermal"]["cold_outputs_rad"][0] + 10e-6)),
        ("calibration_chromatic_offsets_high_rad0", lambda t: t["chromatic"]["offsets_high_rad"].__setitem__(
            0, t["chromatic"]["offsets_high_rad"][0] + 5e-6)),
    ):
        bad = copy.deepcopy(table)
        edit(bad)
        cases.append((name, "calibration table perturbed", checks.check_calibration(json.dumps(bad), campaign)))
    return cases


def _bookkeeping_cases(workdir: str) -> list[tuple[str, str, object]]:
    """An operation that raises, here a CLI run that exits non-zero, must fail and make the run not correct."""

    class OneRaising(workloads.Workload):
        name = "selftest"

        def _round(self):
            self.op("solve", lambda: beam_optics.truncated_fwhm(
                beam_optics.AperturedBeam(beam_optics.GaussianBeam(0.01, 1.55e-6), 0.02)).value, lambda v: [])
            self.op("simulate", lambda: workloads.run_cli(
                ["simulate", "--config", os.path.join(workdir, "missing.ini"), "--out", os.path.join(workdir, "x.csv")]),
                lambda out: [])
            return {}

    wl = OneRaising(0, workdir, lambda op_id: None)
    wl.run_round()
    failures = [] if wl.correct else [f"op_raises: {wl.failed} of {wl.attempted} operation(s) failed"]
    if (wl.attempted, wl.failed) != (2, 1):
        failures = []
    return [("op_raises", "operation raises", failures)]


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_run", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = _pass_cases() + _design_cases(workdir) + _bookkeeping_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = 0
    for expected, what, failures in cases:
        if expected:
            ok = any(f.startswith(expected + ":") for f in failures)
            verdict = "rejected" if ok else "NOT REJECTED"
        else:
            ok = not failures
            verdict = "accepted" if ok else "REJECTED: " + "; ".join(failures)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {expected or 'clean':40s} {what}: {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
