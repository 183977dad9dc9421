import ast
import contextlib
import csv
import dataclasses
import functools
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from beamdiv.actuator import ActuatorState, DivergenceMap, ThermalModel, achieved_divergence
from beamdiv.beam_optics import Convention
from beamdiv.calibration import sample_position_map
from beamdiv.cli import build_parser, main
from beamdiv.config import _SCHEMA, ConfigError, load_config
from beamdiv.link_budget import calibrate_sensitivity
from beamdiv.pointing import GainConvention
from beamdiv.sim import Strategy, adaptive_policy

DESIGN_INI = """\
[link]
tx_power_w = 2.0
wavelength_m = 1.55e-6
tx_divergence_rad = 90e-6
tx_divergence_convention = fwhm
rx_aperture_diameter_m = 0.35
insertion_loss_db = 0.026

[anchor]
distance_m = 600e3
rate_bps = 10e9
margin_db = 5.0

[geometry]
altitude_m = 600e3
max_range_m = 1200e3
dt_s = 1.0

[policy]
strategy = exact_opt
margin_floor_db = 5.0
sigma_p_rad = 0.0

[run]
seed = 0
"""


@pytest.fixture
def design_ini(tmp_path):
    path = tmp_path / "design.ini"
    path.write_text(DESIGN_INI)
    return str(path)


class TestConfigLoading:
    def test_ini_round_trip(self, design_ini):
        cfg = load_config(design_ini)
        assert cfg.link.tx_power_w == 2.0
        assert cfg.link.sensitivity is not None
        assert cfg.geometry.max_range_m == 1200e3
        assert cfg.policy.strategy is Strategy.EXACT_OPT
        assert cfg.seed == 0

    def test_json_variant(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({
            "link": {"tx_power_w": 2.0, "rx_aperture_diameter_m": 0.35},
            "policy": {"strategy": "rule_5_sigma", "sigma_p_rad": 366.5e-6},
        }))
        cfg = load_config(str(path))
        assert cfg.policy.strategy is Strategy.RULE_5_SIGMA
        assert cfg.sigma_p_rad == 366.5e-6

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\ntx_powr_w = 2.0\n")
        with pytest.raises(ConfigError, match="tx_powr_w"):
            load_config(str(path))

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[links]\ntx_power_w = 2.0\n")
        with pytest.raises(ConfigError, match="links"):
            load_config(str(path))

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\ntx_power_w = two\n")
        with pytest.raises(ConfigError, match="tx_power_w"):
            load_config(str(path))

    def test_explicit_sensitivity_wins(self, tmp_path):
        path = tmp_path / "sens.ini"
        path.write_text("[sensitivity]\nref_rate_bps = 10e9\nref_sensitivity_dbm = -25.0\n")
        cfg = load_config(str(path))
        assert cfg.link.sensitivity.ref_sensitivity_dbm == -25.0

    def test_defaults_without_file_sections(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\nseed = 7\n")
        cfg = load_config(str(path))
        assert cfg.seed == 7
        assert cfg.dmap.max_travel == 3.5e-3
        # Default anchor calibration reproduces the design margin.
        from beamdiv.link_budget import budget_report

        assert budget_report(cfg.link, 600e3, 10e9).margin_db == pytest.approx(5.0, abs=1e-9)


# Every config key, with a distinct valid value as written in a file and the
# RunConfig path that value must land on.
KEY_PROBES = {
    ("link", "tx_power_w"): ("1.5", "link.tx_power_w"),
    ("link", "wavelength_m"): ("1.56e-6", "link.wavelength"),
    ("link", "tx_divergence_rad"): ("100e-6", "link.tx_divergence.value"),
    ("link", "tx_divergence_convention"): ("full_1e2", "link.tx_divergence.convention"),
    ("link", "rx_aperture_diameter_m"): ("0.3", "link.rx_aperture_diameter"),
    ("link", "insertion_loss_db"): ("0.05", "link.insertion_loss_db"),
    ("link", "misc_loss_db"): ("1.0", "link.misc_loss_db"),
    ("sensitivity", "ref_rate_bps"): ("5e9", "link.sensitivity.ref_rate"),
    ("sensitivity", "ref_sensitivity_dbm"): ("-30.0", "link.sensitivity.ref_sensitivity_dbm"),
    ("anchor", "distance_m"): ("700e3", "link.sensitivity"),
    ("anchor", "rate_bps"): ("5e9", "link.sensitivity"),
    ("anchor", "margin_db"): ("4.0", "link.sensitivity"),
    ("map", "collimated_divergence_rad"): ("100e-6", "dmap.collimated_divergence"),
    ("map", "diverging_slope_rad_per_m"): ("1.5", "dmap.diverging_slope"),
    ("map", "converging_slope_rad_per_m"): ("1.6", "dmap.converging_slope"),
    ("map", "max_travel_m"): ("3e-3", "dmap.max_travel"),
    ("thermal", "reference_temperature_c"): ("25.0", "thermal.reference_temperature_c"),
    ("thermal", "cold_temperature_c"): ("-40.0", "thermal.cold_temperature_c"),
    ("thermal", "hot_temperature_c"): ("70.0", "thermal.hot_temperature_c"),
    ("thermal", "anchor_settings_rad"): ("100e-6, 6e-3", "thermal.anchor_settings"),
    ("thermal", "cold_outputs_rad"): ("600e-6, 4e-3", "thermal.cold_outputs"),
    ("thermal", "hot_outputs_rad"): ("400e-6, 5.6e-3", "thermal.hot_outputs"),
    ("chromatic", "wavelengths_m"): ("1.52e-6, 1.55e-6, 1.57e-6", "chromatic.wavelengths"),
    ("chromatic", "anchor_settings_rad"): ("100e-6, 6e-3", "chromatic.anchor_settings"),
    ("chromatic", "offsets_low_rad"): ("11e-6, 0.0, 3e-6", "chromatic.offsets_low"),
    ("chromatic", "offsets_high_rad"): ("170e-6, 0.0, 130e-6", "chromatic.offsets_high"),
    ("geometry", "altitude_m"): ("650e3", "geometry.altitude_m"),
    ("geometry", "min_elevation_deg"): ("10.0", "geometry.min_elevation_deg"),
    ("geometry", "max_elevation_deg"): ("80.0", "geometry.max_elevation_deg"),
    ("geometry", "dt_s"): ("2.0", "geometry.dt_s"),
    ("geometry", "max_range_m"): ("1100e3", "geometry.max_range_m"),
    ("policy", "strategy"): ("rule_5_sigma", "policy.strategy"),
    ("policy", "margin_floor_db"): ("4.0", "policy.margin_floor_db"),
    ("policy", "convention"): ("linear", "policy.convention"),
    ("policy", "fixed_divergence_rad"): ("1e-3", "policy.fixed_divergence_rad"),
    ("policy", "rate_ladder_bps"): ("1e9, 2e9", "policy.rate_ladder_bps"),
    ("policy", "sigma_p_rad"): ("1e-5", "sigma_p_rad"),
    ("run", "seed"): ("7", "seed"),
}

# Each entry of a two-entry model key, named low/high, with a distinct valid value for that entry alone: written
# as the list key with the other entry at its design value, it must land on that one tuple slot.
ENTRY_PROBES = {
    ("thermal", "anchor_low_rad"): ("anchor_settings_rad", 0, "100e-6"),
    ("thermal", "anchor_high_rad"): ("anchor_settings_rad", 1, "6e-3"),
    ("thermal", "cold_output_low_rad"): ("cold_outputs_rad", 0, "600e-6"),
    ("thermal", "cold_output_high_rad"): ("cold_outputs_rad", 1, "4e-3"),
    ("thermal", "hot_output_low_rad"): ("hot_outputs_rad", 0, "400e-6"),
    ("thermal", "hot_output_high_rad"): ("hot_outputs_rad", 1, "5.6e-3"),
    ("chromatic", "anchor_low_rad"): ("anchor_settings_rad", 0, "100e-6"),
    ("chromatic", "anchor_high_rad"): ("anchor_settings_rad", 1, "6e-3"),
}


def leaves(obj, prefix=""):
    """Flatten nested dataclasses and tuples to {dotted path: value}."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, tuple):
        items = list(enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for name, value in items:
        out.update(leaves(value, f"{prefix}.{name}" if prefix else str(name)))
    return out


def _under(path, root):
    return path == root or path.startswith(root + ".")


class TestSchemaTable:
    def test_every_key_is_probed(self):
        assert set(KEY_PROBES) == {(section, key) for section, keys in _SCHEMA.items() for key in keys}

    @pytest.mark.parametrize("section,key", sorted(KEY_PROBES) + sorted(ENTRY_PROBES))
    def test_key_sets_only_its_field(self, section, key, tmp_path):
        design = load_config(None)
        if (section, key) in ENTRY_PROBES:
            key, index, entry = ENTRY_PROBES[section, key]
            target = KEY_PROBES[section, key][1]
            slots = [repr(v) for v in functools.reduce(getattr, target.split("."), design)]
            slots[index] = entry
            value, target = ", ".join(slots), f"{target}.{index}"
        else:
            value, target = KEY_PROBES[section, key]
        entries = {key: value}
        if section == "sensitivity":
            # The section is all-or-nothing; the other key keeps its design value.
            sens = design.link.sensitivity
            entries = {"ref_rate_bps": repr(sens.ref_rate), "ref_sensitivity_dbm": repr(sens.ref_sensitivity_dbm),
                       **entries}
        path = tmp_path / "one.ini"
        path.write_text(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
        before, after = leaves(design), leaves(load_config(str(path)))
        changed = {p for p in before.keys() | after.keys() if before.get(p, KeyError) != after.get(p, KeyError)}
        assert any(_under(p, target) for p in changed)
        # A [link] key may also move the sensitivity calibrated from that link.
        allowed = (target, "link.sensitivity") if section == "link" else (target,)
        assert all(any(_under(p, root) for root in allowed) for p in changed), sorted(changed)

    def test_device_model_keys_are_spelled_only_in_the_schema(self):
        """No module but config.py holds a [map], [thermal] or [chromatic] key, so the calibrate table writes its
        models under the config's keys.  A key that is also its field's attribute name (the three temperatures)
        is the model's own spelling as well, which validation messages use, so it is not counted."""
        keys = {key for section in ("map", "thermal", "chromatic")
                for key, (_, name, _) in _SCHEMA[section].items() if key != name}
        assert {"anchor_settings_rad", "cold_outputs_rad", "offsets_high_rad", "diverging_slope_rad_per_m"} <= keys
        src = Path(__file__).resolve().parent.parent / "src" / "beamdiv"
        spelled = {(path.name, node.value) for path in sorted(src.glob("*.py")) if path.name != "config.py"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and node.value in keys}
        assert spelled == set()

    @pytest.mark.parametrize("section,key", [
        ("thermal", "anchor_low_rad"), ("thermal", "anchor_high_rad"),
        ("thermal", "cold_output_low_rad"), ("thermal", "cold_output_high_rad"),
        ("thermal", "hot_output_low_rad"), ("thermal", "hot_output_high_rad"),
        ("chromatic", "anchor_low_rad"), ("chromatic", "anchor_high_rad"),
    ])
    def test_a_per_entry_model_key_is_unknown(self, section, key, tmp_path, capsys):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = 1e-4\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == f"{path}: unknown key '{key}' in section [{section}]"

    @pytest.mark.parametrize("suffix", [".ini", ".json"])
    def test_every_key_at_once_lands_on_its_target(self, suffix, tmp_path):
        """All keys in one file, [anchor] in place of [sensitivity]: both [link] slots and the five [policy] slots
        merge into one model each, and every value lands where its key alone puts it."""
        probes = {sk: probe for sk, probe in KEY_PROBES.items() if sk[0] != "sensitivity"}
        sections = {}
        for (section, key), (value, _) in probes.items():
            sections.setdefault(section, {})[key] = value
        path = tmp_path / f"all{suffix}"
        if suffix == ".json":
            def native(raw):
                try:
                    items = json.loads(f"[{raw}]")
                except json.JSONDecodeError:
                    return raw
                return items if "," in raw else items[0]

            path.write_text(json.dumps({section: {key: native(value) for key, value in keys.items()}
                                        for section, keys in sections.items()}))
        else:
            path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                    for section, keys in sections.items()))
        cfg = load_config(str(path))
        assert cfg.link.sensitivity == calibrate_sensitivity(cfg.link, 700e3, 5e9, 4.0)
        for (section, key), (value, target) in probes.items():
            if section == "anchor":
                continue
            alone = tmp_path / "alone.ini"
            alone.write_text(f"[{section}]\n{key} = {value}\n")
            get = functools.partial(functools.reduce, getattr, target.split("."))
            assert get(cfg) == get(load_config(str(alone))), (section, key)

    @pytest.mark.parametrize("line,error", [
        ("rate_bps = abc", "invalid value for 'rate_bps' in section [anchor]: could not convert string to float: 'abc'"),
        ("rate = 10e9", "unknown key 'rate' in section [anchor]"),
    ], ids=["malformed", "unknown"])
    def test_anchor_keys_are_checked_when_sensitivity_pins_the_model(self, line, error, tmp_path):
        path = tmp_path / "pinned.ini"
        path.write_text(f"[sensitivity]\nref_rate_bps = 10e9\nref_sensitivity_dbm = -30\n\n[anchor]\n{line}\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}: {error}"

    def test_none_is_an_empty_file(self, tmp_path):
        (tmp_path / "empty.ini").write_text("")
        (tmp_path / "empty.json").write_text("{}")
        design = load_config(None)
        assert design == load_config(str(tmp_path / "empty.ini"))
        assert design == load_config(str(tmp_path / "empty.json"))

    def test_none_is_the_design_point(self):
        from beamdiv.link_budget import budget_report

        cfg = load_config(None)
        assert (cfg.link.tx_power_w, cfg.link.wavelength, cfg.link.rx_aperture_diameter) == (2.0, 1.55e-6, 0.35)
        assert cfg.link.tx_divergence.value == 90e-6
        assert cfg.policy.margin_floor_db == 5.0
        assert budget_report(cfg.link, 600e3, 10e9).margin_db == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("name,text,named", [
        ("anchor.ini", "[anchor]\nrate_bps = -1\n", "[anchor]"),
        ("divergence.ini", "[link]\ntx_divergence_rad = -1e-6\n", "[link]"),
        ("sensitivity.ini", "[sensitivity]\nref_rate_bps = -1\nref_sensitivity_dbm = -30\n", "[sensitivity]"),
        ("chromatic.ini", "[chromatic]\nwavelengths_m = 1.52e-6, 1.53e-6, 1.55e-6, 1.57e-6\n", "[chromatic]"),
        # A model list of the wrong length: a third entry used to be ignored.
        ("thermal_anchors.ini", "[thermal]\nanchor_settings_rad = 90e-6, 5e-3, 6e-3\n",
         "invalid [thermal] section: anchor_settings needs exactly 2 entries, got 3"),
        ("thermal_cold.ini", "[thermal]\ncold_outputs_rad = 675e-6, 4.2e-3, 99.0\n",
         "invalid [thermal] section: cold_outputs needs exactly 2 entries, got 3"),
        ("thermal_hot.ini", "[thermal]\nhot_outputs_rad = 423e-6\n",
         "invalid [thermal] section: hot_outputs needs exactly 2 entries, got 1"),
        ("chromatic_anchors.ini", "[chromatic]\nanchor_settings_rad = 90e-6\n",
         "invalid [chromatic] section: anchor_settings needs exactly 2 entries, got 1"),
        ("headerless.ini", "tx_power_w = 2.0\n", "headerless.ini"),
        ("broken.json", "{", "broken.json"),
        # float() and int() would take these as 3, 1.0 and (1e9, 1.0).
        ("seed.json", '{"run": {"seed": 3.7}}', "seed"),
        ("power.json", '{"link": {"tx_power_w": true}}', "tx_power_w"),
        ("ladder.json", '{"policy": {"rate_ladder_bps": [1e9, true]}}', "rate_ladder_bps"),
        ("sigma_nan.ini", "[policy]\nsigma_p_rad = nan\n", "sigma_p_rad"),
        ("sigma_inf.ini", "[policy]\nsigma_p_rad = inf\n", "sigma_p_rad"),
        ("sigma_negative.ini", "[policy]\nsigma_p_rad = -1e-6\n", "sigma_p_rad"),
        ("strategy.ini", "[policy]\nstrategy = best\n",
         "'strategy' in section [policy]: must be one of ['rule_5_sigma', 'exact_opt', 'fixed'], got 'best'"),
        ("top_level_list.json", "[1, 2]", "top_level_list.json must be an object of section objects"),
        ("sensitivity_without_ref.ini", "[sensitivity]\nref_rate_bps = 10e9\n", "missing key(s): ['ref_sensitivity_dbm']"),
    ])
    def test_model_errors_are_config_errors(self, name, text, named, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(str(path))
        assert main(["budget", "--config", str(path), "--distance", "600e3", "--rate", "10e9"]) == 2
        assert named in json.loads(capsys.readouterr().err)["error"]


    def test_missing_ini_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "absent.ini"
        with pytest.raises(ConfigError, match=f"config file not found or unreadable: {re.escape(str(path))}$"):
            load_config(str(path))
        assert main(["simulate", "--config", str(path)]) == 2
        assert str(path) in json.loads(capsys.readouterr().err)["error"]


class TestBudgetCommand:
    def test_design_margin_table(self, capsys):
        code = main(["budget", "--distance", "600e3", "--rate", "10e9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "+5.000" in out

    def test_second_point_json(self, capsys):
        code = main(["budget", "--distance", "1200e3", "--rate", "2.5e9", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["margin_db"] == pytest.approx(5.0, abs=1e-9)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\nmystery_key = 1\n")
        code = main(["budget", "--config", str(path), "--distance", "600e3", "--rate", "10e9"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "mystery_key" in err["error"]

    def test_numerical_failure_exits_3(self, capsys):
        code = main(["budget", "--distance", "-1.0", "--rate", "10e9"])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err)


class TestOptimizeCommand:
    def test_adcs_example(self, capsys):
        code = main(["optimize", "--sigma", "3.665e-4", "--format", "json",
                     "--reference-divergence", "1.833e-3"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rule_of_thumb_rad"] == pytest.approx(1.833e-3, rel=1e-3)
        assert data["exact_optimum_rad"] == pytest.approx(1.573e-3, rel=1e-3)
        assert data["gain_improvement_db_vs_reference"] > 0.0

    def test_zero_sigma_clamps_with_warning(self, capsys):
        code = main(["optimize", "--sigma", "0", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact_optimum_rad"] == 90e-6
        assert "warning" in data

    def test_table_with_reference(self, capsys):
        assert main(["optimize", "--sigma", "1e-4", "--reference-divergence", "1e-3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "pointing sigma     100.00 urad",
            "rule of thumb (5s) 500.00 urad",
            "exact optimum      429.19 urad  [quadratic gain]",
            "gain vs reference  +7.35 dB (reference 1.0000 mrad)",
        ]

    def test_table_zero_sigma_warns(self, capsys):
        assert main(["optimize", "--sigma", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "pointing sigma     0.00 urad",
            "rule of thumb (5s) 90.00 urad",
            "exact optimum      90.00 urad  [quadratic gain]",
            "warning: sigma <= 0: no finite optimum, clamped to the hardware minimum",
        ]

    def test_huge_sigma_clamps_to_the_branch_maximum(self, capsys):
        # 5 * 1e308 overflows; the pick clamps like any other, and nothing is warned.
        assert main(["optimize", "--sigma", "1e308", "--format", "json"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["rule_of_thumb_rad"] == data["exact_optimum_rad"] == data["hardware_max_rad"]
        assert captured.err == ""

    def test_missing_sigma_exits_2(self, capsys):
        assert main(["optimize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "provide --sigma (radians)", "command": "optimize"}

    def test_sigma_is_given_in_radians_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--help"])
        assert exc.value.code == 0
        assert "--sigma-deg" not in capsys.readouterr().out

    def test_answers_with_the_config_policy_and_map(self, tmp_path, capsys):
        path = tmp_path / "linear.ini"
        path.write_text("[map]\ncollimated_divergence_rad = 100e-6\nmax_travel_m = 3e-3\n"
                        "[policy]\nconvention = linear\n")
        cfg = load_config(str(path))
        state = cfg.make_actuator_state()
        for sigma in (0.0, 15e-6, 250e-6, 2e-3):
            assert main(["optimize", "--sigma", repr(sigma), "--config", str(path), "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert (data.pop("warning", None) is not None) == (sigma == 0.0)
            picks = {
                name: float(adaptive_policy(dataclasses.replace(cfg.policy, strategy=strategy), sigma, state))
                for name, strategy in (("rule_of_thumb_rad", Strategy.RULE_5_SIGMA),
                                       ("exact_optimum_rad", Strategy.EXACT_OPT))
            }
            assert data == {
                "sigma_rad": sigma,
                "convention": "linear",
                **picks,
                "hardware_min_rad": 100e-6,
                "hardware_max_rad": state.dmap.diverging_max,
            }
        assert state.dmap.diverging_max != load_config(None).dmap.diverging_max


class TestEmulateCommand:
    def test_script_trace(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("set-divergence 5e-3 diverging\nstep 0.9\n")
        code = main(["emulate", "--script", str(script)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + initial + 2 commands
        header = lines[0].split(",")
        final = dict(zip(header, lines[-1].split(",")))
        assert float(final["actual_divergence_rad"]) == pytest.approx(5e-3, rel=1e-9)
        assert final["in_motion"] == "False"

    def test_cold_query(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("set-temperature -30\nquery\n")
        code = main(["emulate", "--script", str(script), "--format", "json"])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace[-1]["actual_divergence_rad"] == pytest.approx(675e-6, rel=1e-9)

    def test_empty_script_initial_only(self, capsys):
        code = main(["emulate"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_bad_command_exits_3(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("warp 9\n")
        assert main(["emulate", "--script", str(script)]) == 3

    def test_wrong_argument_count_exits_3_with_the_usage(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("query\nsteer 1e-5\n")
        assert main(["emulate", "--script", str(script)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "script line 2: usage: steer TIP_RAD TILT_RAD",
                                            "command": "emulate"}

    def test_set_wavelength(self, tmp_path, capsys):
        script = tmp_path / "cmds.txt"
        script.write_text("set-wavelength 1.53e-6\n")
        assert main(["emulate", "--script", str(script), "--format", "json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace[-1]["command"] == "set-wavelength 1.53e-6"
        assert trace[-1]["wavelength_m"] == 1.53e-6
        assert trace[-1]["actual_divergence_rad"] == achieved_divergence(ActuatorState(wavelength=1.53e-6), 0.0)


class TestCalibrateCommand:
    def write_positions(self, path, noise_rng=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["position_m", "divergence_rad"])
            for x, theta in sample_position_map(DivergenceMap(), points_per_branch=16).tolist():
                if noise_rng is not None:
                    theta *= 1.0 + noise_rng.normal(0.0, 0.01)
                writer.writerow([repr(x), repr(theta)])

    def test_clean_fixture_passes_gate(self, tmp_path, capsys):
        path = tmp_path / "positions.csv"
        self.write_positions(path)
        code = main(["calibrate", "--positions", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["position"]["passed"] is True
        assert data["position"]["diverging_fit"]["r_squared"] >= 0.9999

    def test_noisy_fixture_flagged(self, tmp_path, capsys):
        path = tmp_path / "positions.csv"
        self.write_positions(path, np.random.default_rng(5))
        code = main(["calibrate", "--positions", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["position"]["passed"] is False
        assert "linearity below gate" in captured.err

    def test_thermal_table(self, tmp_path, capsys):
        path = tmp_path / "thermal.csv"
        model = ThermalModel()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta_set_rad", "temp_c", "theta_meas_rad"])
            for theta in model.anchor_settings:
                for t in (-30.0, -20.0, 20.0, 40.0, 60.0):
                    writer.writerow([repr(theta), repr(t), repr(theta + model.deviation(theta, t))])
        code = main(["calibrate", "--thermal", str(path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["thermal"]["slopes_rad_per_c"]["cold_anchor0"] == pytest.approx(1.17e-5, rel=1e-9)

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("position_m,theta\n0.0,9e-05\n")
        code = main(["calibrate", "--positions", str(path)])
        assert code == 2
        assert "divergence_rad" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("text,named", [
        ("position_m,divergence_rad\n0.0,9e-05\n1e-4,abc\n", "divergence_rad"),
        ("position_m,divergence_rad\n", "no data rows"),
        ("position_m,divergence_rad\n0.0,9e-05\n1e-4,nan\n", "line 3"),
    ])
    def test_malformed_input_exits_2(self, text, named, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main(["calibrate", "--positions", str(path)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert named in error and str(path) in error

    def test_no_inputs_exits_2(self, capsys):
        assert main(["calibrate"]) == 2


    def test_sweep_that_does_not_straddle_the_reference_exits_3(self, tmp_path, capsys):
        path = tmp_path / "thermal.csv"
        model = ThermalModel()
        rows = [(theta, t, theta + model.deviation(theta, t))
                for theta in model.anchor_settings for t in (25.0, 30.0, 40.0, 60.0)]
        path.write_text("theta_set_rad,temp_c,theta_meas_rad\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        assert main(["calibrate", "--thermal", str(path)]) == 3
        assert "reference_temperature_c must be finite and > 25.0 and < 60.0, got 20.0" in json.loads(
            capsys.readouterr().err)["error"]


class TestSimulateCommand:
    def test_outputs_and_determinism(self, design_ini, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", design_ini, "--out", str(out_a)]) == 0
        summary_a = json.loads(capsys.readouterr().out)
        assert main(["simulate", "--config", design_ini, "--out", str(out_b)]) == 0
        summary_b = json.loads(capsys.readouterr().out)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert summary_a == summary_b
        assert summary_a["fraction_at_margin_floor"] == 1.0

    def test_stdout_csv(self, design_ini, capsys):
        assert main(["simulate", "--config", design_ini]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t_s,")

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1e-6"])
    def test_bad_sigma_exits_2(self, sigma, tmp_path, capsys):
        path = tmp_path / "sigma.ini"
        path.write_text(f"[policy]\nsigma_p_rad = {sigma}\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "sigma_p_rad" in json.loads(capsys.readouterr().err)["error"]

    def test_pass_that_never_closes_exits_0_with_outages(self, tmp_path, capsys):
        for text in (
            # 0.1 rad of jitter leaves no rate on any tick: every row is an outage.
            "[policy]\nsigma_p_rad = 0.1\n",
            # A -4000 dBm sensitivity overflows every tick's rate: an outage too, not an infinite rate.
            "[sensitivity]\nref_rate_bps = 1e10\nref_sensitivity_dbm = -4000\n",
        ):
            path = tmp_path / "spike.ini"
            path.write_text(text)
            out = tmp_path / "pass.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["total_bits"] == 0.0
            assert summary["fraction_at_margin_floor"] == 0.0
            rows = out.read_text().splitlines()[1:]
            assert rows and all(row.endswith(",-inf,0.0") for row in rows)

    def test_jitter_past_the_square_range_exits_0_with_outages(self, tmp_path, capsys):
        # beta**2 overflows a float: the pointing loss saturates at -inf dB.
        # At 1e308 the policy's pick overflows too, and clamps to the branch maximum.
        for sigma in ("1e200", "1e308"):
            path = tmp_path / "huge.ini"
            path.write_text(f"[policy]\nsigma_p_rad = {sigma}\n")
            out = tmp_path / "pass.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            summary = json.loads(captured.out)
            assert summary["total_bits"] == 0.0
            assert summary["fraction_at_margin_floor"] == 0.0
            rows = out.read_text().splitlines()[1:]
            assert rows and all(row.endswith(",-inf,-inf,0.0") for row in rows)

    @pytest.mark.parametrize("section,text", [
        ("[map]", "[map]\ncollimated_divergence_rad = nan\n"),
        ("[map]", "[map]\nmax_travel_m = inf\n"),
        ("[thermal]", "[thermal]\ncold_outputs_rad = nan, 4e-3\n"),
        ("[chromatic]", "[chromatic]\noffsets_low_rad = nan, 0.0, 3e-6\n"),
        # Equal anchors used to divide by zero inside the pass.
        ("[chromatic]", "[chromatic]\nanchor_settings_rad = 5e-3, 5e-3\n"),
    ])
    def test_non_finite_actuator_model_exits_2(self, section, text, tmp_path, capsys):
        path = tmp_path / "model.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        assert section in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("text", [
        "[geometry]\nmin_elevation_deg = 30\nmax_elevation_deg = 20\n",
        "[geometry]\nmax_range_m = 650e3\nmax_elevation_deg = 60\n",
    ], ids=["elevation_clip", "range_clip"])
    def test_a_geometry_with_an_empty_pass_exits_2_naming_the_file(self, text, tmp_path, capsys):
        # The pass used to be found empty only once it ran, and exited 3 naming neither file nor section.
        path = tmp_path / "geometry.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(f"{path}: invalid [geometry] section: empty pass")

    @pytest.mark.parametrize("text", [
        # r**2 overflowed in slant_range: an OverflowError traceback, exit 1.
        "[geometry]\naltitude_m = 1e300\n",
        # The culmination range cancelled to 0: a numpy RuntimeWarning, then exit 3 naming no file or section.
        "[geometry]\naltitude_m = 5e-3\n",
    ], ids=["past_geo", "millimetre"])
    def test_an_altitude_outside_its_range_exits_2_naming_the_section(self, text, tmp_path, capsys):
        path = tmp_path / "altitude.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(
            f"{path}: invalid [geometry] section: altitude_m must be finite and >= 100000.0 and <= 100000000.0")

    @pytest.mark.parametrize("text,error", [
        # 625,321,063 ticks: numpy's allocation failed with a traceback, exit 1, or took 4.66 GiB.
        ("[geometry]\ndt_s = 1e-6\n", "dt_s = 1e-06 s gives a pass of more than 10000000 ticks"),
        # Each tick's bits overflowed: a numpy RuntimeWarning, then exit 0.
        ("[geometry]\ndt_s = 1e300\n", "dt_s must be finite and > 0 and <= 86400.0, got 1e+300"),
    ], ids=["over_the_tick_cap", "longer_than_a_day"])
    def test_a_tick_outside_its_range_exits_2_naming_the_section(self, text, error, tmp_path, capsys):
        path = tmp_path / "ticks.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(f"{path}: invalid [geometry] section: {error}")

    def test_link_wavelength_drives_the_chromatic_model(self, tmp_path, capsys):
        # At 1.53 um the design chromatic model adds 10 urad at collimation.
        path = tmp_path / "wavelength.ini"
        path.write_text("[link]\nwavelength_m = 1.53e-6\n")
        out = tmp_path / "pass.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        header, first = out.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert row["theta_commanded_rad"] == 90e-6
        assert row["theta_actual_rad"] == 1e-4

    @pytest.mark.parametrize("text", [
        # A 20 C start lies below this qualified range, and the pass used to exit 3 on it.
        "[thermal]\nreference_temperature_c = 30\ncold_temperature_c = 25\n",
        # A 20 C start lay 5 C off this reference, and the pass lost 60 % of its bits.
        "[thermal]\nreference_temperature_c = 25\n",
    ], ids=["cold_end_above_20_c", "reference_at_25_c"])
    def test_the_actuator_starts_at_its_thermal_reference(self, text, tmp_path, capsys):
        # No deviation at the reference: the pass is the design pass, byte for byte.
        assert main(["simulate"]) == 0
        design = capsys.readouterr()
        path = tmp_path / "reference.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 0
        got = capsys.readouterr()
        assert got.err == design.err
        assert got.out.splitlines() == design.out.splitlines()  # a list diff stays short where a text diff does not

    def test_seed_flag_overrides(self, design_ini, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", design_ini, "--seed", "9", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9


@pytest.mark.parametrize("argv,code", [
    (["simulate"], 2),
    (["emulate"], 2),
    (["optimize", "--sigma", "1e-5"], 2),
    (["budget", "--distance", "600e3", "--rate", "10e9"], 0),
], ids=["simulate", "emulate", "optimize", "budget"])
def test_link_wavelength_outside_the_chromatic_band(argv, code, tmp_path, capsys):
    path = tmp_path / "wavelength.ini"
    path.write_text("[link]\nwavelength_m = 1.6e-6\n")
    assert main([*argv, "--config", str(path)]) == code
    if code:
        # Like every other load error, it starts with the config path.
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: [link] wavelength_m: ")


def test_one_parser_serves_every_call(design_ini, capsys):
    assert build_parser() is build_parser()
    assert main(["optimize", "--sigma", "3.665e-4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma_rad"] == 3.665e-4
    # No argument of one call carries into the next.
    assert main(["optimize"]) == 2
    assert "--sigma" in json.loads(capsys.readouterr().err)["error"]
    runs = []
    for extra in (["--seed", "9"], [], []):
        assert main(["simulate", "--config", design_ini, *extra]) == 0
        runs.append(capsys.readouterr())
    assert json.loads(runs[0].err)["seed"] == 9
    assert json.loads(runs[1].err)["seed"] == 0
    assert runs[1].out == runs[2].out and runs[1].err == runs[2].err


@pytest.mark.parametrize("name,argv,data", [
    ("run.ini", ["simulate", "--config"], b"[link]\ntx_power_w = 2.0\xff\n"),
    ("run.json", ["simulate", "--config"], b'{"link": {"tx_power_w": "2.0\xff"}}'),
    ("positions.csv", ["calibrate", "--positions"], b"position_m,divergence_rad\n0.0,9e-05\xff\n"),
    ("script.txt", ["emulate", "--script"], b"query\xff\n"),
], ids=["ini", "json", "csv", "script"])
def test_input_file_that_is_not_utf8_exits_2_naming_it(name, argv, data, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert f"{path} is not UTF-8 text" in error and "0xff" in error


@pytest.mark.parametrize("argv,files,code,named", [
    (["budget", "--distance", "nan", "--rate", "10e9", "--format", "json"], {}, 3, "distance"),
    (["budget", "--distance", "inf", "--rate", "10e9", "--format", "json"], {}, 3, "distance"),
    (["budget", "--distance", "600e3", "--rate", "nan", "--format", "json"], {}, 3, "rate"),
    (["optimize", "--sigma", "nan"], {}, 3, "sigma"),
    # argparse takes "-1e-5" for a flag but "-0.01" for a number.
    (["optimize", "--sigma", "-0.01"], {}, 3, "sigma"),
    (["optimize", "--sigma", "1e-5", "--reference-divergence", "-1"], {}, 3, "theta_ref"),
    (["optimize", "--sigma", "2e-5", "--reference-divergence", "0"], {}, 3, "theta_ref"),
    # The hardware limits come from [map]: the collimated minimum, and the
    # branch maximum that a negative slope would put below it.
    (["optimize", "--sigma", "1e-5", "--config", "{config}", "--format", "json"],
     {"config": "[map]\ncollimated_divergence_rad = nan\n"}, 2, "[map] section: collimated_divergence"),
    (["optimize", "--sigma", "1e-5", "--config", "{config}", "--format", "json"],
     {"config": "[map]\nmax_travel_m = inf\n"}, 2, "[map] section: max_travel"),
    (["optimize", "--sigma", "1e-5", "--config", "{config}"],
     {"config": "[map]\ndiverging_slope_rad_per_m = -1\n"}, 2, "[map] section: diverging_slope"),
    (["emulate", "--script", "{script}"], {"script": "query\nstep nan\n"}, 3, "line 2"),
    (["emulate", "--script", "{script}"], {"script": "steer nan nan\n"}, 3, "tip"),
    (["emulate", "--script", "{script}"], {"script": "set-temperature 61\n"}, 3, "temperature_c"),
    (["simulate", "--config", "{config}"], {"config": "[geometry]\nmax_elevation_deg = 95\n"}, 2,
     "max_elevation_deg"),
    # The pass's bits overflow, in their running total or in one tick's rate * dt_s.
    (["simulate", "--config", "{config}"],
     {"config": "[sensitivity]\nref_rate_bps = 1e306\nref_sensitivity_dbm = -35\n"}, 3, "total_bits"),
    (["simulate", "--config", "{config}"],
     {"config": "[sensitivity]\nref_rate_bps = 1e303\nref_sensitivity_dbm = -35\n[geometry]\ndt_s = 86400\n"},
     3, "total_bits"),
    (["calibrate", "--profiler", "{csv}"],
     {"csv": "distance_m,spot_diameter_m\n3.0,0.002\n6.0,0.003\n9.0,0.004\nnan,0.005\n"}, 2, "line 5"),
    (["calibrate", "--profiler", "{csv}"],
     {"csv": "distance_m,spot_diameter_m\n3.0,0.002\n6.0,0.0004\n9.0,0.004\n"}, 3,
     "spot_diameter_m must be finite and >= 0.0008"),
    (["calibrate", "--profiler", "{csv}"],
     {"csv": "distance_m,spot_diameter_m\n0.0,0.002\n6.0,0.003\n9.0,0.004\n"}, 3,
     "distance_m must be finite and > 0"),
], ids=["budget_distance", "budget_distance_inf", "budget_rate", "optimize_sigma", "optimize_sigma_negative",
        "optimize_reference", "optimize_reference_zero", "optimize_min_nan", "optimize_max_inf", "optimize_min_above_max", "emulate_step", "emulate_steer",
        "emulate_temperature", "simulate_elevation", "simulate_bits_total_overflow", "simulate_bits_tick_overflow",
        "calibrate_profiler", "calibrate_profiler_below_resolution", "calibrate_profiler_distance_zero"])
def test_bad_number_exits_with_a_json_record(argv, files, code, named, tmp_path, capsys):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["command"] == argv[0]
    assert named in record["error"]


# The values a fuzzed key takes besides its KEY_PROBES value: zero, a sign, the ends of the float range, and
# numbers no design uses.  None lies between 1e-9 and 1, nor does dt_s's probe (2.0), so no draw asks either
# this tree or one without the tick cap for a pass of gigabytes.
FUZZ_NUMBERS = ["0", "-1", "1e-300", "1e300", "1e-12", "1e12", "nan", "inf"]
FUZZ_ENUMS = {
    ("link", "tx_divergence_convention"): Convention,
    ("policy", "strategy"): Strategy,
    ("policy", "convention"): GainConvention,
}


def _fuzz_value(section_key):
    """A value for one config key: an enum name, a list, or one number, as a file writes it."""
    probe = KEY_PROBES[section_key][0]
    if section_key in FUZZ_ENUMS:
        return hs.sampled_from([kind.value for kind in FUZZ_ENUMS[section_key]] + FUZZ_NUMBERS)
    if "," in probe:
        entries = hs.sampled_from(FUZZ_NUMBERS + [entry.strip() for entry in probe.split(",")])
        return hs.just(probe) | hs.lists(entries, min_size=1, max_size=4).map(", ".join)
    return hs.sampled_from(FUZZ_NUMBERS + [probe])


_FUZZ_KEYS = hs.lists(hs.sampled_from(sorted(KEY_PROBES)), min_size=1, max_size=3, unique=True)


@settings(max_examples=100)  # about 1 s
@given(entries=_FUZZ_KEYS.flatmap(lambda keys: hs.fixed_dictionaries({key: _fuzz_value(key) for key in keys})))
@example(entries={("geometry", "altitude_m"): "1e300"})
# The bits of a pass overflow: in their running total, and in one tick's rate * dt_s.
@example(entries={("sensitivity", "ref_rate_bps"): "1e306", ("sensitivity", "ref_sensitivity_dbm"): "-35"})
@example(entries={("sensitivity", "ref_rate_bps"): "1e303", ("sensitivity", "ref_sensitivity_dbm"): "-35",
                  ("geometry", "dt_s"): "86400"})
def test_every_config_runs_or_exits_with_one_json_line(entries, tmp_path_factory):
    # One to three keys of any section: the run exits 0, or 2 or 3 with one JSON record on stderr, and
    # nothing escapes main, no warning included.
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "run.ini"
    path.write_text("".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items()))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(path), "--out", str(workdir / "pass.csv")])
    assert code in (0, 2, 3)
    text = err.getvalue()
    if text or code:
        assert code and text.count("\n") == 1
        assert isinstance(json.loads(text)["error"], str)


class TestHelp:
    @pytest.mark.parametrize("cmd", ["budget", "optimize", "emulate", "calibrate", "simulate"])
    def test_subcommand_help_mentions_units(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out.lower()
        assert any(unit in text for unit in ("radian", "rad", "meter", "bit/s", "csv"))

    def test_top_level_help_documents_conventions(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "FWHM" in text or "1/e^2" in text


PROFILER_CSV = "distance_m,spot_diameter_m\n3.0,0.002\n6.0,0.003\n9.0,0.004\n"


@pytest.mark.parametrize("argv,files", [
    (["budget", "--distance", "600e3", "--rate", "10e9"], {}),
    (["budget", "--distance", "600e3", "--rate", "10e9", "--format", "json"], {}),
    (["optimize", "--sigma", "1e-4", "--reference-divergence", "1e-3"], {}),
    (["optimize", "--sigma", "0", "--format", "json"], {}),
    (["emulate", "--script", "{script}"], {"script": "set-divergence 1e-3\nstep 0.1\n"}),
    (["emulate", "--script", "{script}", "--format", "json"], {"script": "set-divergence 1e-3\nstep 0.1\n"}),
    (["calibrate", "--profiler", "{csv}"], {"csv": PROFILER_CSV}),
], ids=["budget_table", "budget_json", "optimize_table", "optimize_json", "emulate_csv", "emulate_json",
        "calibrate"])
def test_out_writes_the_stdout_text(argv, files, tmp_path, capsys):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = out.read_bytes().decode()
    assert written == shown
    assert written.endswith("\n") and not written.endswith("\n\n")
