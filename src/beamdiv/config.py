"""Run-configuration files for the CLI and simulator.

Configs are INI-style key-value files with one section per subsystem, or the
same structure as JSON (chosen by file extension).  Every key is validated
against the schema and unknown keys are rejected by name, so a typo fails
loudly instead of silently falling back to a default.

Defaults live in one place: a key a file leaves out keeps the value of the
design point, which is the model dataclasses' own defaults plus the design
``LinkConfig``, ``ControlPolicy`` and sensitivity anchor defined below.
``load_config(None)`` returns the design point, equal to loading a file with
no keys.

All angles in files are radians, all distances meters, powers watts, rates
bit/s; dB values say so in their key names.
"""

from __future__ import annotations

import configparser
import enum
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from ._checks import finite
from .actuator import ActuatorState, ChromaticModel, DivergenceMap, ThermalModel
from .beam_optics import Convention, DivergenceAngle
from .link_budget import LinkConfig, SensitivityModel, calibrate_sensitivity
from .pointing import GainConvention
from .sim import ControlPolicy, PassGeometry, Strategy

__all__ = ["ConfigError", "RunConfig", "load_config", "DESIGN_ANCHOR", "DESIGN_LINK", "DESIGN_POLICY"]

# Design point, for the fields that have no dataclass default or whose
# default differs from the design.  Sensitivity is calibrated at
# DESIGN_ANCHOR (600 km, 10 Gbit/s, 5 dB margin) unless a file pins it, and
# the policy holds that same margin as its floor.
DESIGN_LINK = LinkConfig(
    tx_power_w=2.0,
    wavelength=1.55e-6,
    tx_divergence=DivergenceAngle(90e-6, Convention.FWHM),
    rx_aperture_diameter=0.35,
)
DESIGN_ANCHOR = (600e3, 10e9, 5.0)
DESIGN_POLICY = ControlPolicy(margin_floor_db=DESIGN_ANCHOR[2])
# The other models' design point is their dataclass defaults.  All are frozen,
# so each is built and validated once, not on every load.
_DESIGN_MAP = DivergenceMap()
_DESIGN_THERMAL = ThermalModel()
_DESIGN_CHROMATIC = ChromaticModel()
_DESIGN_GEOMETRY = PassGeometry()


class ConfigError(ValueError):
    """Invalid config, command-line or measurement-file input; the message names the key, flag, column or file."""


def _parse_float(raw) -> float:
    # float() and int() take JSON's true/false as 1/0.
    if isinstance(raw, bool):
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


def _parse_int(raw) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _parse_float_list(raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_float(v) for v in raw)
    return tuple(float(part) for part in str(raw).split(",") if part.strip())


def _parse_enum(kind: type[enum.Enum]):
    def parse(raw):
        try:
            return kind(str(raw).lower())
        except ValueError:
            raise ValueError(f"must be one of {[k.value for k in kind]}, got {raw!r}") from None

    return parse


# section -> key -> (parser, field, slot).  ``field`` is the attribute the key
# sets on the section's model; ``slot`` is the tuple index, or attribute of a
# nested model, that it sets inside that field.  [anchor] fields are the
# arguments of calibrate_sensitivity.  [policy] and [run] apply to RunConfig
# itself: the policy keys set attributes of its ``policy``.
_SCHEMA = {
    "link": {
        "tx_power_w": (_parse_float, "tx_power_w", None),
        "wavelength_m": (_parse_float, "wavelength", None),
        "tx_divergence_rad": (_parse_float, "tx_divergence", "value"),
        "tx_divergence_convention": (_parse_enum(Convention), "tx_divergence", "convention"),
        "rx_aperture_diameter_m": (_parse_float, "rx_aperture_diameter", None),
        "insertion_loss_db": (_parse_float, "insertion_loss_db", None),
        "misc_loss_db": (_parse_float, "misc_loss_db", None),
    },
    "sensitivity": {
        "ref_rate_bps": (_parse_float, "ref_rate", None),
        "ref_sensitivity_dbm": (_parse_float, "ref_sensitivity_dbm", None),
    },
    "anchor": {
        "distance_m": (_parse_float, "distance", None),
        "rate_bps": (_parse_float, "rate", None),
        "margin_db": (_parse_float, "margin_db", None),
    },
    "map": {
        "collimated_divergence_rad": (_parse_float, "collimated_divergence", None),
        "diverging_slope_rad_per_m": (_parse_float, "diverging_slope", None),
        "converging_slope_rad_per_m": (_parse_float, "converging_slope", None),
        "max_travel_m": (_parse_float, "max_travel", None),
    },
    "thermal": {
        "reference_temperature_c": (_parse_float, "reference_temperature_c", None),
        "cold_temperature_c": (_parse_float, "cold_temperature_c", None),
        "hot_temperature_c": (_parse_float, "hot_temperature_c", None),
        "anchor_low_rad": (_parse_float, "anchor_settings", 0),
        "anchor_high_rad": (_parse_float, "anchor_settings", 1),
        "cold_output_low_rad": (_parse_float, "cold_outputs", 0),
        "cold_output_high_rad": (_parse_float, "cold_outputs", 1),
        "hot_output_low_rad": (_parse_float, "hot_outputs", 0),
        "hot_output_high_rad": (_parse_float, "hot_outputs", 1),
    },
    "chromatic": {
        "wavelengths_m": (_parse_float_list, "wavelengths", None),
        "anchor_low_rad": (_parse_float, "anchor_settings", 0),
        "anchor_high_rad": (_parse_float, "anchor_settings", 1),
        "offsets_low_rad": (_parse_float_list, "offsets_low", None),
        "offsets_high_rad": (_parse_float_list, "offsets_high", None),
    },
    "geometry": {
        "altitude_m": (_parse_float, "altitude_m", None),
        "min_elevation_deg": (_parse_float, "min_elevation_deg", None),
        "max_elevation_deg": (_parse_float, "max_elevation_deg", None),
        "dt_s": (_parse_float, "dt_s", None),
        "max_range_m": (_parse_float, "max_range_m", None),
    },
    "policy": {
        "strategy": (_parse_enum(Strategy), "policy", "strategy"),
        "margin_floor_db": (_parse_float, "policy", "margin_floor_db"),
        "convention": (_parse_enum(GainConvention), "policy", "convention"),
        "fixed_divergence_rad": (_parse_float, "policy", "fixed_divergence_rad"),
        "rate_ladder_bps": (_parse_float_list, "policy", "rate_ladder_bps"),
        "sigma_p_rad": (_parse_float, "sigma_p_rad", None),
    },
    "run": {
        "seed": (_parse_int, "seed", None),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration bundle for CLI commands and run_pass."""

    link: LinkConfig
    dmap: DivergenceMap
    thermal: ThermalModel
    chromatic: ChromaticModel
    geometry: PassGeometry
    policy: ControlPolicy
    sigma_p_rad: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        finite("sigma_p_rad", self.sigma_p_rad, ge=0)

    def make_actuator_state(self) -> ActuatorState:
        """A fresh actuator at the link's wavelength, which must lie in the chromatic band."""
        try:
            self.chromatic.check_wavelength(self.link.wavelength)
        except ValueError as exc:
            raise ConfigError(f"[link] wavelength_m: {exc}") from exc
        return ActuatorState(dmap=self.dmap, thermal=self.thermal, chromatic=self.chromatic,
                             wavelength=self.link.wavelength)


def _read_sections(path: str) -> dict:
    try:
        if str(path).endswith(".json"):
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
                raise ConfigError(f"JSON config {path} must be an object of section objects")
            return data
        cp = configparser.ConfigParser()
        if not cp.read(path):
            raise ConfigError(f"config file not found or unreadable: {path}")
        return {section: dict(cp.items(section)) for section in cp.sections()}
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc


def _validate(sections: dict) -> dict:
    parsed: dict = {}
    for section, entries in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _SCHEMA[section]
        out = {}
        for key, raw in entries.items():
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                out[key] = schema[key][0](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid value for '{key}' in section [{section}]: {exc}") from exc
        parsed[section] = out
    return parsed


@contextmanager
def _invalid(section: str):
    """Re-raise a model's validation error as a ConfigError naming the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def _fields(section: str, entries: dict, base) -> dict:
    """Model fields set by a section's keys; slotted keys merge into ``base``'s value."""
    fields: dict = {}
    slots: dict = {}
    for key, value in entries.items():
        _, name, slot = _SCHEMA[section][key]
        if slot is None:
            fields[name] = value
        else:
            slots.setdefault(name, {})[slot] = value
    for name, values in slots.items():
        current = getattr(base, name)
        if isinstance(current, tuple):
            fields[name] = tuple(values.get(i, v) for i, v in enumerate(current))
        else:
            fields[name] = replace(current, **values)
    return fields


def load_config(path: Optional[str] = None) -> RunConfig:
    """Load and validate a config file (INI-style, or JSON by extension).

    Each model starts from the design point and takes only the keys the file
    sets, so ``load_config(None)`` is the design point itself.  Unless a
    [sensitivity] section pins the sensitivity, it is calibrated at the
    [anchor] operating point, which defaults to ``DESIGN_ANCHOR``.
    """
    sections = {} if path is None else _validate(_read_sections(path))

    def model(section: str, base):
        if section not in sections:
            return base
        with _invalid(section):
            return replace(base, **_fields(section, sections[section], base))

    link = model("link", DESIGN_LINK)
    if "sensitivity" in sections:
        missing = set(_SCHEMA["sensitivity"]) - set(sections["sensitivity"])
        if missing:
            raise ConfigError(f"[sensitivity] missing key(s): {sorted(missing)}")
        with _invalid("sensitivity"):
            sensitivity = SensitivityModel(**_fields("sensitivity", sections["sensitivity"], None))
    else:
        anchor = dict(zip(("distance", "rate", "margin_db"), DESIGN_ANCHOR))
        anchor.update(_fields("anchor", sections.get("anchor", {}), None))
        with _invalid("anchor"):
            sensitivity = calibrate_sensitivity(link, **anchor)
    run = RunConfig(
        link=link.with_sensitivity(sensitivity),
        dmap=model("map", _DESIGN_MAP),
        thermal=model("thermal", _DESIGN_THERMAL),
        chromatic=model("chromatic", _DESIGN_CHROMATIC),
        geometry=model("geometry", _DESIGN_GEOMETRY),
        policy=DESIGN_POLICY,
    )
    return model("run", model("policy", run))
