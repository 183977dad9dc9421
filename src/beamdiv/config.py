"""Run-configuration files for the CLI and simulator.

Configs are INI-style key-value files with one section per subsystem, or the
same structure as JSON (chosen by file extension).  Every key is validated
against the schema and unknown keys are rejected by name, so a typo fails
loudly instead of silently falling back to a default.

Files are UTF-8.  An INI file is read line by line in this grammar, which
``configparser`` reads to the same sections:

- ``[section]`` starts a section; each section appears once;
- ``key = value`` or ``key: value`` splits at the first ``=`` or ``:``; the
  key is stripped and lowercased, the value stripped; each key appears once
  in its section;
- a line whose first non-blank character is ``#`` or ``;`` is a comment,
  and a blank line is skipped;
- an indented line continues the value of the key above it, joined with a
  newline (so a rate ladder may span lines); blank lines inside it are kept,
  trailing ones dropped.

Anything else is a :class:`ConfigError` naming the file and the line: a key
line before the first header, a line with no delimiter, an empty key, a
repeated section or key, and an indented line with no key above it.  So are
four things ``configparser`` would read: a ``[DEFAULT]`` section (it shares
its keys with every section), a ``%`` outside a comment (it interpolates
``%(key)s`` and ``%%``, and every value here is a number or an enum name),
text after a header's ``]`` (it drops it), and an indented first key under
a header.

Defaults live in one place: a key a file leaves out keeps the value of the
design point, which is the model dataclasses' own defaults plus the design
``LinkConfig``, ``ControlPolicy`` and sensitivity anchor defined below.
``load_config(None)`` returns the design point, equal to loading a file with
no keys.

All angles in files are radians, all distances meters, powers watts, rates
bit/s; dB values say so in their key names.

The device-model sections use the keys under which ``beamdiv calibrate``
writes its fitted models, so a table's model keys load as they are; a list
value is written ``a, b`` in INI and as a list in JSON:

- ``[map]``: ``collimated_divergence_rad``, ``diverging_slope_rad_per_m``,
  ``converging_slope_rad_per_m``, ``max_travel_m``;
- ``[thermal]``: ``reference_temperature_c``, ``cold_temperature_c``,
  ``hot_temperature_c``, and the lists ``anchor_settings_rad``,
  ``cold_outputs_rad`` and ``hot_outputs_rad`` (2 entries each);
- ``[chromatic]``: the lists ``wavelengths_m`` (3 entries),
  ``anchor_settings_rad`` (2), ``offsets_low_rad`` and ``offsets_high_rad``
  (3 each).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from typing import Optional

from ._checks import finite
from .actuator import ActuatorState, ChromaticModel, DivergenceMap, ThermalModel
from .beam_optics import Convention, DivergenceAngle
from .link_budget import LinkConfig, SensitivityModel, calibrate_sensitivity
from .pointing import GainConvention
from .sim import ControlPolicy, PassGeometry, Strategy

__all__ = ["ConfigError", "RunConfig", "load_config", "DESIGN_ANCHOR", "DESIGN_LINK", "DESIGN_POLICY"]

# The device models' design point is their dataclass defaults.  All are
# frozen, so each is built and validated once, not on every load.
_DESIGN_MAP = DivergenceMap()
_DESIGN_THERMAL = ThermalModel()
_DESIGN_CHROMATIC = ChromaticModel()
_DESIGN_GEOMETRY = PassGeometry()
# Design point, for the fields that have no dataclass default or whose
# default differs from the design.  The link transmits the lens's collimated
# beam at the chromatic model's optimization wavelength.  Sensitivity is
# calibrated at DESIGN_ANCHOR (600 km, 10 Gbit/s, 5 dB margin) unless a file
# pins it, and the policy holds that same margin as its floor.
DESIGN_LINK = LinkConfig(
    tx_power_w=2.0,
    wavelength=_DESIGN_CHROMATIC.optimization_wavelength,
    tx_divergence=DivergenceAngle(_DESIGN_MAP.collimated_divergence, Convention.FWHM),
    rx_aperture_diameter=0.35,
)
DESIGN_ANCHOR = (600e3, 10e9, 5.0)
DESIGN_POLICY = ControlPolicy(margin_floor_db=DESIGN_ANCHOR[2])


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
# sets on the section's model; ``slot`` is the attribute of a nested model that
# it sets inside that field.  [anchor] fields are the arguments of
# calibrate_sensitivity.  [policy] and [run] apply to RunConfig itself: the
# policy keys set attributes of its ``policy``.  The [map], [thermal] and
# [chromatic] keys are also the calibrate table's model keys (_model_dict).
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
        "anchor_settings_rad": (_parse_float_list, "anchor_settings", None),
        "cold_outputs_rad": (_parse_float_list, "cold_outputs", None),
        "hot_outputs_rad": (_parse_float_list, "hot_outputs", None),
    },
    "chromatic": {
        "wavelengths_m": (_parse_float_list, "wavelengths", None),
        "anchor_settings_rad": (_parse_float_list, "anchor_settings", None),
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
            return ActuatorState(dmap=self.dmap, thermal=self.thermal, chromatic=self.chromatic,
                                 wavelength=self.link.wavelength)
        except ValueError as exc:
            raise ConfigError(f"[link] wavelength_m: {exc}") from exc


def _read_sections(path: str) -> dict:
    """The file's ``{section: {key: raw value}}``: JSON by extension, else INI; input errors are ConfigErrors naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    except OSError:
        raise ConfigError(f"config file not found or unreadable: {path}") from None
    if not str(path).endswith(".json"):
        return _parse_ini(text, path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
        raise ConfigError(f"JSON config {path} must be an object of section objects")
    return data


def _parse_ini(text: str, path: str) -> dict:
    """The sections of an INI text, in the grammar of the module docstring."""
    sections: dict = {}
    entries = parts = None  # the current section's keys, and the current key's value lines
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            if parts is not None:
                parts.append("")  # kept only if a continuation line follows, as ConfigParser does
            continue
        if stripped[0] in "#;":
            continue
        if "%" in stripped:
            problem = "'%' is not allowed: values are not interpolated"
        elif line[0].isspace():
            if parts is not None:
                parts.append(stripped)
                continue
            problem = "indented line continues no key"
        elif stripped[0] == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name:
                problem = "a section header is '[name]' with nothing after the ']'"
            elif name == "DEFAULT":
                problem = "unknown config section [DEFAULT]: no section's keys are shared"
            elif name in sections:
                problem = f"section [{name}] repeated"
            else:
                entries = sections[name] = {}
                parts = None
                continue
        elif entries is None:
            problem = "key line before the first [section] header"
        else:
            eq, colon = stripped.find("="), stripped.find(":")
            cut = eq if colon < 0 or 0 <= eq < colon else colon  # the first delimiter, or -1
            key = stripped[:cut].rstrip().lower()
            if cut < 0:
                problem = "expected 'key = value' or 'key: value'"
            elif not key:
                problem = "empty key"
            elif key in entries:
                problem = f"key '{key}' repeated in section [{name}]"
            else:
                entries[key] = parts = [stripped[cut + 1:].lstrip()]
                continue
        raise ConfigError(f"malformed config file {path}, line {lineno}: {problem}")
    return {section: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
            for section, keys in sections.items()}


def _apply(section: str, entries: Optional[dict], base):
    """``base`` with a section's raw ``entries`` applied, or with ``base`` None the parsed fields alone.

    Each key is checked against the schema, parsed, and set on its field, or
    merged into the slot of ``base``'s nested model.  An absent or empty
    section returns ``base`` itself, not a re-validated copy.  The model's own
    ValueError is re-raised as a ConfigError naming the section.
    """
    if not entries:
        return {} if base is None else base
    schema = _SCHEMA[section]
    fields, slots = {}, {}
    for key, raw in entries.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        parse, name, slot = schema[key]
        try:
            value = parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for '{key}' in section [{section}]: {exc}") from exc
        if slot is None:
            fields[name] = value
        else:
            slots.setdefault(name, {})[slot] = value
    if base is None:
        return fields
    try:
        for name, values in slots.items():
            fields[name] = replace(getattr(base, name), **values)
        return replace(base, **fields)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def _model_dict(section: str, model) -> dict:
    """``model``'s fields under ``section``'s keys, in schema order, tuples as lists: the section as JSON holds it."""
    fields = {key: getattr(model, name) for key, (_, name, _) in _SCHEMA[section].items()}
    return {key: list(value) if isinstance(value, tuple) else value for key, value in fields.items()}


def load_config(path: Optional[str] = None) -> RunConfig:
    """Load and validate a config file (INI-style, or JSON by extension).

    Each model starts from the design point and takes only the keys the file
    sets, so ``load_config(None)`` is the design point itself.  Unless a
    [sensitivity] section pins the sensitivity, it is calibrated at the
    [anchor] operating point, which defaults to ``DESIGN_ANCHOR``.  Every
    error is a :class:`ConfigError` that names the file, and the line for a
    malformed INI file.  A file with several errors reports one: an unknown
    section first, then the first bad key or model in model order ([link],
    [anchor], [sensitivity], [map], [thermal], [chromatic], [geometry],
    [policy], [run]), which need not be the first in the file.
    """
    if path is None:
        return _run_config({})
    sections = _read_sections(path)
    try:
        return _run_config(sections)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _run_config(sections: dict) -> RunConfig:
    """The design point with each raw section's keys applied."""
    for section in sections:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    link = _apply("link", sections.get("link"), DESIGN_LINK)
    # [anchor] is parsed and checked even when [sensitivity] pins the model.
    anchor = dict(zip(("distance", "rate", "margin_db"), DESIGN_ANCHOR))
    anchor.update(_apply("anchor", sections.get("anchor"), None))
    pinned = "sensitivity" in sections
    if pinned:
        fields = _apply("sensitivity", sections["sensitivity"], None)
        missing = set(_SCHEMA["sensitivity"]) - set(sections["sensitivity"])
        if missing:
            raise ConfigError(f"[sensitivity] missing key(s): {sorted(missing)}")
    try:
        sensitivity = SensitivityModel(**fields) if pinned else calibrate_sensitivity(link, **anchor)
    except ValueError as exc:
        raise ConfigError(f"invalid [{'sensitivity' if pinned else 'anchor'}] section: {exc}") from exc
    run = RunConfig(
        link=link.with_sensitivity(sensitivity),
        dmap=_apply("map", sections.get("map"), _DESIGN_MAP),
        thermal=_apply("thermal", sections.get("thermal"), _DESIGN_THERMAL),
        chromatic=_apply("chromatic", sections.get("chromatic"), _DESIGN_CHROMATIC),
        geometry=_apply("geometry", sections.get("geometry"), _DESIGN_GEOMETRY),
        policy=DESIGN_POLICY,
    )
    return _apply("run", sections.get("run"), _apply("policy", sections.get("policy"), run))
