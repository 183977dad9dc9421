"""Span tracer for the traced run.

Wrappers around beamdiv's public functions record one span per call: name,
start, end, parent span and operation id.  They are installed on every module
attribute through which a caller looks the function up (``beamdiv.sim``
calls ``max_rate`` through its own namespace, not ``beamdiv.link_budget``'s),
so nothing under ``src/`` changes.  Spans stay in memory, in flat typed
arrays, and are written out once when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# Span name -> (defining module, attribute) and every module that looks it up.
TRACED = {
    "beam_optics.truncated_fwhm": ("beamdiv.beam_optics", "truncated_fwhm", ()),
    "beam_optics.farfield_intensity": ("beamdiv.beam_optics", "farfield_intensity", ()),
    "pointing.optimal_divergence": ("beamdiv.pointing", "optimal_divergence", ("beamdiv.sim", "beamdiv.cli")),
    "pointing.rule_of_thumb_divergence": ("beamdiv.pointing", "rule_of_thumb_divergence", ("beamdiv.sim", "beamdiv.cli")),
    "pointing.pointing_loss_db": ("beamdiv.pointing", "pointing_loss_db", ("beamdiv.sim",)),
    "pointing.sweep_optimal_divergence": ("beamdiv.pointing", "sweep_optimal_divergence", ()),
    "link_budget.max_rate": ("beamdiv.link_budget", "max_rate", ("beamdiv.sim",)),
    "link_budget.received_power_dbm": ("beamdiv.link_budget", "received_power_dbm", ("beamdiv.sim",)),
    "link_budget.calibrate_sensitivity": ("beamdiv.link_budget", "calibrate_sensitivity", ("beamdiv.config",)),
    "actuator.command_divergence": ("beamdiv.actuator", "command_divergence", ()),
    "actuator.step": ("beamdiv.actuator", "step", ()),
    "actuator.actual_divergence": ("beamdiv.actuator", "actual_divergence", ()),
    "sim.run_pass": ("beamdiv.sim", "run_pass", ("beamdiv.cli",)),
    "sim.pass_profile": ("beamdiv.sim", "pass_profile", ()),
    "sim.adaptive_policy": ("beamdiv.sim", "adaptive_policy", ()),
    "sim.steps_to_csv": ("beamdiv.sim", "steps_to_csv", ("beamdiv.cli",)),
    "sim.write_steps_csv": ("beamdiv.sim", "write_steps_csv", ()),
    "config.load_config": ("beamdiv.config", "load_config", ("beamdiv.cli",)),
    "cli.main": ("beamdiv.cli", "main", ()),
    "cli.cmd_simulate": ("beamdiv.cli", "cmd_simulate", ()),
    "cli.cmd_calibrate": ("beamdiv.cli", "cmd_calibrate", ()),
    "calibration.read_position_csv": ("beamdiv.calibration", "read_position_csv", ()),
    "calibration.read_profiler_csv": ("beamdiv.calibration", "read_profiler_csv", ()),
    "calibration.read_thermal_csv": ("beamdiv.calibration", "read_thermal_csv", ()),
    "calibration.read_chromatic_csv": ("beamdiv.calibration", "read_chromatic_csv", ()),
    "calibration.build_position_map": ("beamdiv.calibration", "build_position_map", ()),
    "calibration.fit_divergence": ("beamdiv.calibration", "fit_divergence", ()),
    "calibration.build_thermal_model": ("beamdiv.calibration", "build_thermal_model", ()),
    "calibration.build_chromatic_model": ("beamdiv.calibration", "build_chromatic_model", ()),
}

SETUP_OP = -1   # operation id of spans recorded during warm-up


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = SETUP_OP
        self.slewing_steps = 0
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for i, (home, attr, lookups) in enumerate(TRACED.values()):
            fn = getattr(importlib.import_module(home), attr)
            wrapped = self._wrap(i, fn, count_slewing=attr == "step")
            for mod_name in (home, *lookups):
                mod = importlib.import_module(mod_name)
                self._originals.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, i: int, fn, count_slewing: bool):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(i)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                stack.pop()
            if count_slewing and result.in_motion:
                self.slewing_steps += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name totals over the spans of the timed rounds."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self._a = a
        self._dur = dur
        self._self = dur - child
        self._timed = a["op"] != SETUP_OP

    def _sel(self, name: str, timed: bool = True) -> np.ndarray:
        sel = self._a["name_id"] == self.names.index(name)
        return sel & self._timed if timed else sel

    def count(self, name: str) -> int:
        return int(np.count_nonzero(self._sel(name)))

    def total(self, name: str) -> float:
        return float(np.sum(self._dur[self._sel(name)]))

    def self_total(self, name: str) -> float:
        return float(np.sum(self._self[self._sel(name)]))

    def mean(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def first_setup(self, name: str) -> float:
        """Duration of the first call of ``name`` in the process (warm-up included)."""
        idx = np.flatnonzero(self._sel(name, timed=False))
        return float(self._dur[idx[0]]) if idx.size else 0.0

    def _under(self, name: str, parent: str) -> np.ndarray:
        """Timed calls of ``name`` whose direct parent is a ``parent`` span."""
        p = self._a["parent"]
        parent_is = (p >= 0) & (self._a["name_id"][np.maximum(p, 0)] == self.names.index(parent))
        return self._sel(name) & parent_is

    def count_under(self, name: str, parent: str) -> int:
        return int(np.count_nonzero(self._under(name, parent)))

    def total_under(self, name: str, parent: str) -> float:
        return float(np.sum(self._dur[self._under(name, parent)]))

    def self_total_with_child(self, name: str, child: str) -> float:
        """Self time of the timed ``name`` spans that have a ``child`` span."""
        parents = np.unique(self._a["parent"][self._under(child, name)])
        return float(np.sum(self._self[parents]))


def per_layer(stats: SpanStats, tracer: Tracer, rounds: int, wall_s: float, speed: float) -> dict[str, dict]:
    """Per-layer metrics of the timed rounds; a layer a workload never calls reads 0.

    Span times (ms, us) are multiplied by ``speed``, the run's machine-speed
    factor, so that they compare across runs like ``wall_s`` does.
    """
    fwhm, ff = "beam_optics.truncated_fwhm", "beam_optics.farfield_intensity"
    rpd = "link_budget.received_power_dbm"
    ticks = stats.count("actuator.step")
    simulates = stats.count("cli.cmd_simulate")
    reductions = stats.count("cli.cmd_calibrate")
    ff_in_fwhm = stats.count_under(ff, fwhm)
    ff_alone = stats.count(ff) - ff_in_fwhm
    reads = [n for n in stats.names if n.startswith("calibration.read_")]
    fits = [n for n in stats.names if n.startswith("calibration.") and n not in reads]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "beam_optics.truncated_fwhm_ms": (stats.mean(fwhm) * 1e3, "ms"),
        "beam_optics.farfield_calls_per_fwhm": (ratio(ff_in_fwhm, stats.count(fwhm)), "count"),
        "beam_optics.farfield_intensity_ms": (
            ratio(stats.total(ff) - stats.total_under(ff, fwhm), ff_alone) * 1e3, "ms"),
        "beam_optics.farfield_calls": (ratio(stats.count(ff), rounds), "count"),
        "beam_optics.first_solve_ms": (stats.first_setup(fwhm) * 1e3, "ms"),
        "pointing.optimal_divergence_us": (stats.mean("pointing.optimal_divergence") * 1e6, "us"),
        "pointing.pointing_loss_db_us": (stats.mean("pointing.pointing_loss_db") * 1e6, "us"),
        "pointing.sweep_optimal_divergence_ms": (stats.mean("pointing.sweep_optimal_divergence") * 1e3, "ms"),
        "link_budget.max_rate_us": (stats.mean("link_budget.max_rate") * 1e6, "us"),
        "link_budget.received_power_dbm_us": (stats.mean(rpd) * 1e6, "us"),
        "link_budget.budget_evals_per_tick": (
            ratio(stats.count_under(rpd, "link_budget.max_rate") + stats.count_under(rpd, "sim.run_pass"), ticks),
            "count"),
        "link_budget.calibrate_sensitivity_us": (stats.mean("link_budget.calibrate_sensitivity") * 1e6, "us"),
        "actuator.command_divergence_us": (stats.mean("actuator.command_divergence") * 1e6, "us"),
        "actuator.step_us": (stats.mean("actuator.step") * 1e6, "us"),
        "actuator.actual_divergence_us": (stats.mean("actuator.actual_divergence") * 1e6, "us"),
        "actuator.slewing_ticks": (ratio(tracer.slewing_steps, rounds), "count"),
        "sim.run_pass_calls": (ratio(stats.count("sim.run_pass"), rounds), "count"),
        "sim.run_pass_self_us_per_tick": (ratio(stats.self_total("sim.run_pass"), ticks) * 1e6, "us"),
        "sim.pass_profile_ms": (stats.mean("sim.pass_profile") * 1e3, "ms"),
        "sim.steps_to_csv_us_per_row": (ratio(stats.total("sim.steps_to_csv"), ticks) * 1e6, "us"),
        "config.load_config_ms": (stats.mean("config.load_config") * 1e3, "ms"),
        "cli.simulate_self_ms": (
            ratio(stats.self_total("cli.cmd_simulate") + stats.self_total_with_child("cli.main", "cli.cmd_simulate"),
                  simulates) * 1e3, "ms"),
        "cli.calibrate_self_ms": (
            ratio(stats.self_total("cli.cmd_calibrate") + stats.self_total_with_child("cli.main", "cli.cmd_calibrate"),
                  reductions) * 1e3, "ms"),
        "calibration.read_csv_ms": (ratio(sum(stats.total(n) for n in reads), reductions) * 1e3, "ms"),
        "calibration.fit_ms": (ratio(sum(stats.total(n) for n in fits), reductions) * 1e3, "ms"),
        "trace.wall_s": (wall_s, "s"),
    }
    return {name: {"value": v * speed if unit in ("ms", "us") else v, "unit": unit}
            for name, (v, unit) in values.items()}
