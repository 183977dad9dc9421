"""The three workloads: inputs, warm-up, one timed round, and its checks.

A round is a fixed list of operations (passes, solves, profiles, optimizer
comparisons, reductions).  Each operation is checked on its own: an
exception or a failed check marks that operation failed, records why in
``failures`` (so the run is not correct), and the round goes on.  The first
round is checked against the independent closed forms in ``checks``; later
rounds must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from typing import Callable

import numpy as np

import beamdiv.cli
from beamdiv import actuator, beam_optics, pointing, sim
from beamdiv.link_budget import LinkConfig, calibrate_sensitivity

import checks
import inputs


class Stopwatch:
    """Accumulates wall time spent inside one function, looked up on one module."""

    def __init__(self, module, attr: str) -> None:
        self.seconds = 0.0
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(module, attr, timed)

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


class Workload:
    """Base: operation bookkeeping shared by the three workloads."""

    name = ""

    def __init__(self, seed: int, workdir: str, on_op: Callable[[int], None]) -> None:
        self.seed = seed
        self.on_op = on_op
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checking = True       # False: run the operations only, e.g. to measure the program's memory
        self.rounds = 0
        self._reference: dict[str, object] = {}
        self._op_id = 0
        self._check_s = 0.0

    def clock(self) -> float:
        """Wall clock that stands still while outputs are being checked."""
        return time.perf_counter() - self._check_s

    def _unclocked(self, fn: Callable[[], object]):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._check_s += time.perf_counter() - t0

    def op(self, key: str, body: Callable[[], object], check: Callable[[object], list[str]],
           observe: Callable[[object], object] = lambda out: out):
        """Run one operation; check it on the first round, compare it after.

        ``observe`` turns the operation's result into what is checked, for
        example by reading back the file it wrote; it runs off the clock.
        """
        self.attempted += 1
        self._op_id += 1
        self.on_op(self._op_id)
        try:
            out = body()
        except Exception:
            self.report(key, ["raised:\n" + traceback.format_exc()])
            return None
        if self.checking:
            self.report(key, self._unclocked(lambda: self._verify(key, observe(out), check)))
        return out

    def _verify(self, key: str, seen, check) -> list[str]:
        if key in self._reference:
            return [] if _same(seen, self._reference[key]) else ["output differs from round 1"]
        problems = check(seen)
        if not problems:
            self._reference[key] = seen
        return problems

    @property
    def correct(self) -> bool:
        """True when no operation raised or failed a check."""
        return not self.failures

    def report(self, key: str, problems: list[str], ops: int = 1) -> None:
        """Count ``ops`` operations failed when ``problems`` is not empty."""
        if problems:
            self.failed += ops
            self.failures += [f"{key}: {p}" for p in problems]
            for p in problems:
                print(f"[{self.name}] {key}: {p}", file=sys.stderr)

    def run_round(self) -> tuple[float, dict[str, float]]:
        """One round; returns its wall time, checks excluded, and its informational rates."""
        self.rounds += 1
        t0 = self.clock()
        rates = self._round()
        return self.clock() - t0, rates

    def _round(self) -> dict[str, float]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and bool(np.all(a == b))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def design_link() -> LinkConfig:
    link = LinkConfig(
        tx_power_w=2.0,
        wavelength=inputs.DESIGN_WAVELENGTH_M,
        tx_divergence=beam_optics.DivergenceAngle(inputs.COLLIMATED_RAD, beam_optics.Convention.FWHM),
        rx_aperture_diameter=0.35,
    )
    anchor = (inputs.ANCHOR_DISTANCE_M, inputs.ANCHOR_RATE_BPS, inputs.ANCHOR_MARGIN_DB)
    return link.with_sensitivity(calibrate_sensitivity(link, *anchor))


def run_cli(argv: list[str]) -> str:
    """Run the ``beamdiv`` CLI in-process; returns its stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = beamdiv.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"beamdiv {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _per_s(count: float, seconds: float) -> float:
    """A rate, or NaN when every timed call failed before taking any time."""
    return count / seconds if seconds > 0.0 else math.nan


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------- pass_fine

class PassFine(Workload):
    """One 28.8k-tick pass through run_pass and write_steps_csv."""

    name = "pass_fine"

    def __init__(self, seed, workdir, on_op):
        super().__init__(seed, workdir, on_op)
        self.inp = inputs.pass_fine(seed)
        if not (np.all(np.isfinite(self.inp.jitter)) and np.all(self.inp.jitter >= 0.0)):
            raise ValueError("generated jitter schedule must be finite and >= 0")
        self.spec = checks.PassSpec(
            altitude_m=self.inp.altitude_m,
            max_range_m=self.inp.max_range_m,
            dt_s=self.inp.dt_s,
            temperature_c=self.inp.temperature_c,
            sigma=self.inp.jitter,
        )
        self.geometry = sim.PassGeometry(
            altitude_m=self.inp.altitude_m, max_range_m=self.inp.max_range_m, dt_s=self.inp.dt_s
        )
        self.policy = sim.ControlPolicy(strategy=sim.Strategy.EXACT_OPT, margin_floor_db=inputs.ANCHOR_MARGIN_DB)
        self.csv_path = os.path.join(workdir, "pass_fine.csv")

    def _state(self) -> actuator.ActuatorState:
        state = actuator.ActuatorState()
        actuator.set_temperature(state, self.inp.temperature_c)
        return state

    def warm_up(self) -> None:
        self.link = design_link()
        short = sim.PassGeometry(altitude_m=self.inp.altitude_m, max_range_m=self.inp.max_range_m, dt_s=1.0)
        result = sim.run_pass(short, self.policy, self.link, jitter=25e-6, state=self._state())
        sim.write_steps_csv(result.steps, self.csv_path)

    def _pass(self) -> dict:
        result = sim.run_pass(self.geometry, self.policy, self.link, jitter=self.inp.jitter,
                              seed=self.seed, state=self._state())
        self._t_run = self.clock()
        sim.write_steps_csv(result.steps, self.csv_path)
        self._t_csv = self.clock()
        return result.summary

    def _check(self, out) -> list[str]:
        text, summary = out
        return checks.check_pass(checks.parse_pass_csv(text), summary, self.spec)

    def _round(self) -> dict[str, float]:
        t0 = self._t_run = self._t_csv = self.clock()
        self.op("pass", self._pass, self._check, lambda summary: (_read(self.csv_path), summary))
        ticks = len(self.inp.jitter)
        return {
            "ticks_per_s": _per_s(ticks, self._t_run - t0),
            "csv_rows_per_s": _per_s(ticks, self._t_csv - self._t_run),
        }


# ---------------------------------------------------------------- pass_batch

class PassBatch(Workload):
    """About a hundred short passes through ``beamdiv simulate``."""

    name = "pass_batch"

    def __init__(self, seed, workdir, on_op):
        super().__init__(seed, workdir, on_op)
        self.configs = inputs.pass_batch(seed, workdir)
        for cfg in self.configs:
            if not (0.0 <= cfg.sigma_rad and cfg.max_range_m > cfg.altitude_m and cfg.ticks <= 289):
                raise ValueError(f"generated config {cfg.path} is out of the workload's domain")
        self.ticks = sum(cfg.ticks for cfg in self.configs)

    def _spec(self, cfg: inputs.BatchConfig) -> checks.PassSpec:
        return checks.PassSpec(
            altitude_m=cfg.altitude_m,
            max_elevation_deg=cfg.max_elevation_deg,
            max_range_m=cfg.max_range_m,
            dt_s=1.0,
            temperature_c=inputs.THERMAL_REF_C,
            sigma=np.full(cfg.ticks, cfg.sigma_rad),
            strategy=cfg.strategy,
            convention=cfg.convention,
            fixed_rad=cfg.fixed_divergence_rad,
            ladder=cfg.ladder,
            floor_db=cfg.margin_floor_db,
        )

    def warm_up(self) -> None:
        cfg = self.configs[0]
        run_cli(["simulate", "--config", cfg.path, "--out", cfg.path + ".csv"])
        self.run_timer = Stopwatch(beamdiv.cli, "run_pass")
        self.csv_timer = Stopwatch(beamdiv.cli, "steps_to_csv")

    def _round(self) -> dict[str, float]:
        t0 = self.clock()
        for cfg in self.configs:
            csv_path = cfg.path + ".csv"
            self.op(os.path.basename(cfg.path),
                    lambda: run_cli(["simulate", "--config", cfg.path, "--out", csv_path]),
                    lambda seen: checks.check_pass(checks.parse_pass_csv(seen[0]), json.loads(seen[1]), self._spec(cfg)),
                    lambda stdout: (_read(csv_path), stdout))
        wall = self.clock() - t0
        return {
            "ticks_per_s": _per_s(self.ticks, self.run_timer.take()),
            "csv_rows_per_s": _per_s(self.ticks, self.csv_timer.take()),
            "passes_per_s": _per_s(len(self.configs), wall),
        }


# ---------------------------------------------------------------- design_bench

class DesignBench(Workload):
    """Far-field solves and profiles, optimizer sweeps, and bench reductions."""

    name = "design_bench"
    conventions = (pointing.GainConvention.QUADRATIC, pointing.GainConvention.LINEAR)
    sweep_range = (1e-7, 1e-1)

    def __init__(self, seed, workdir, on_op):
        super().__init__(seed, workdir, on_op)
        self.inp = inputs.design_bench(seed, workdir)
        if not (np.all(self.inp.truncation_ratios > 0.0) and np.all(np.diff(self.inp.truncation_ratios) > 0.0)):
            raise ValueError("truncation ratios must be positive and increasing")
        self.fwhm = np.zeros((self.inp.truncation_ratios.size, self.inp.wavelengths_m.size))

    def _apertured(self, ratio: float, wavelength: float) -> beam_optics.AperturedBeam:
        d = self.inp.aperture_m
        return beam_optics.AperturedBeam(beam_optics.GaussianBeam(d / ratio, wavelength), d)

    def _angles(self, wavelength: float) -> np.ndarray:
        return np.linspace(0.0, 4.0 * wavelength / self.inp.aperture_m, self.inp.profile_angles)

    def _calibrate(self, c: inputs.Campaign) -> None:
        run_cli(["calibrate", "--positions", c.positions, "--profiler", c.profiler,
                 "--thermal", c.thermal, "--chromatic", c.chromatic, "--out", c.out])

    def warm_up(self) -> None:
        ratio, wl = self.inp.profile_cases[0]
        beam_optics.truncated_fwhm(self._apertured(ratio, wl))
        beam_optics.farfield_intensity(self._apertured(ratio, wl), self._angles(wl))
        pointing.optimal_divergence(1e-5, self.conventions[0])
        pointing.sweep_optimal_divergence(1e-5, self.conventions[0], *self.sweep_range)
        self._calibrate(self.inp.campaigns[0])

    def _round(self) -> dict[str, float]:
        inp = self.inp
        t0 = self.clock()
        for i, ratio in enumerate(inp.truncation_ratios):
            for j, wl in enumerate(inp.wavelengths_m):
                value = self.op(f"fwhm[{i},{j}]", lambda: beam_optics.truncated_fwhm(self._apertured(ratio, wl)).value,
                                lambda v: [] if v > 0.0 else ["non-positive FWHM"])
                self.fwhm[i, j] = np.nan if value is None else value
        # The grid checks relate solves to each other, so they run on the whole grid.
        if self.rounds == 1 and self.checking:
            self.report("fwhm_grid", self._unclocked(lambda: checks.check_fwhm_grid(
                inp.truncation_ratios, inp.wavelengths_m, self.fwhm, inp.aperture_m)), ops=self.fwhm.size)
        t1 = self.clock()
        for k, (ratio, wl) in enumerate(inp.profile_cases):
            angles = self._angles(wl)
            self.op(f"profile[{k}]", lambda: beam_optics.farfield_intensity(self._apertured(ratio, wl), angles),
                    lambda p: checks.check_profile(angles, p, ratio, wl, inp.aperture_m))
        t2 = self.clock()
        for conv in self.conventions:
            for i, s in enumerate(inp.sigmas_rad):
                self.op(f"optimize[{conv.value},{i}]",
                        lambda: (pointing.optimal_divergence(s, conv),
                                 pointing.sweep_optimal_divergence(s, conv, *self.sweep_range)),
                        lambda pair: checks.check_optimizer(np.array([s]), conv.value,
                                                            np.array([pair[0]]), np.array([pair[1]])))
        t3 = self.clock()
        for k, c in enumerate(inp.campaigns):
            self.op(f"calibrate[{k}]", lambda: self._calibrate(c), lambda text: checks.check_calibration(text, c),
                    lambda _: _read(c.out))
        t4 = self.clock()
        return {
            "fwhm_solves_per_s": _per_s(self.fwhm.size, t1 - t0),
            "farfield_angles_per_s": _per_s(len(inp.profile_cases) * inp.profile_angles, t2 - t1),
            "optimizer_comparisons_per_s": _per_s(len(self.conventions) * inp.sigmas_rad.size, t3 - t2),
            "reductions_per_s": _per_s(len(inp.campaigns), t4 - t3),
        }


# Units of the informational per-workload rates printed before the result line.
INFO_UNITS = {
    "raw_wall_s": "s",
    "raw_setup_s": "s",
    "ticks_per_s": "ticks/s",
    "csv_rows_per_s": "rows/s",
    "passes_per_s": "passes/s",
    "fwhm_solves_per_s": "solves/s",
    "farfield_angles_per_s": "angles/s",
    "optimizer_comparisons_per_s": "comparisons/s",
    "reductions_per_s": "reductions/s",
}

WORKLOADS = {w.name: w for w in (PassFine, PassBatch, DesignBench)}
