"""Whether an input number is finite and inside its bounds is decided in one module, ``beamdiv._checks``."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from beamdiv._checks import finite, member, rejected
from beamdiv.actuator import (
    ActuatorState,
    Branch,
    ChromaticModel,
    DivergenceMap,
    ThermalModel,
    position_from_divergence,
    set_temperature,
    set_wavelength,
    steer,
)
from beamdiv.beam_optics import Convention, DivergenceAngle, GaussianBeam, footprint
from beamdiv.config import load_config
from beamdiv.sim import ControlPolicy, PassGeometry, elevation_for_range_deg, run_pass, slant_range

SRC = Path(__file__).resolve().parent.parent / "src" / "beamdiv"
MODULES = [path for path in sorted(SRC.glob("*.py")) if path.name != "_checks.py"]
# ValueError and the package's subclasses of it (TravelRangeError, ConfigError), by name.
VALUE_ERRORS = {"ValueError"} | {
    name for path in MODULES for name, obj in vars(importlib.import_module(f"beamdiv.{path.stem}")).items()
    if isinstance(obj, type) and issubclass(obj, ValueError)
}


def _sites(path, matches):
    """(module file, enclosing ``Class.function``) of every node ``matches`` accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((path.name, where))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
            else:
                visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _isfinite_call(node):
    callee = getattr(node, "func", None)
    return getattr(callee, "attr", getattr(callee, "id", None)) == "isfinite"


def _interval_raise(node):
    """An ``if`` on a chained ``<`` / ``<=`` comparison, negated or not, whose body raises a ``ValueError``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test.operand if isinstance(node.test, ast.UnaryOp) and isinstance(node.test.op, ast.Not) else node.test
    chained = (isinstance(test, ast.Compare) and len(test.ops) > 1
               and all(isinstance(op, (ast.Lt, ast.LtE)) for op in test.ops))
    return chained and any(
        isinstance(stmt, ast.Raise) and getattr(getattr(stmt.exc, "func", None), "id", None) in VALUE_ERRORS
        for stmt in node.body
    )


def _scalar_loop(node):
    """``np.fromiter(...)``, or ``map(...)`` over a ``.tolist()``, unless it maps a string's ``join``."""
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    if getattr(callee, "attr", None) == "fromiter":
        return True
    return (getattr(callee, "id", None) == "map" and bool(node.args)
            and getattr(node.args[0], "attr", None) != "join"
            and any(getattr(getattr(arg, "func", None), "attr", None) == "tolist" for arg in node.args[1:]))


def test_per_element_scalar_loops_only_in_the_columns_module():
    # One place calls a scalar function per element: the CSV kernel's repr fallback.
    loops = [site for path in sorted(SRC.glob("*.py")) if path.name != "_columns.py"
             for site in _sites(path, _scalar_loop)]
    assert loops == []
    assert {where for _, where in _sites(SRC / "_columns.py", _scalar_loop)} == {"_splice_repr"}


def _names_a_tagged_angle(node):
    """A name, attribute or import of ``Convention`` or ``DivergenceAngle``; comments and strings are not nodes."""
    name = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
    return name in {"Convention", "DivergenceAngle"}


def test_divergence_convention_named_only_where_conventions_mix():
    # Everywhere else an angle is a FWHM float in radians.
    naming = {path.stem for path in sorted(SRC.glob("*.py")) if _sites(path, _names_a_tagged_angle)}
    assert naming <= {"beam_optics", "link_budget", "config", "__init__"}


def test_isfinite_only_in_the_helper_module():
    calls = [call for path in MODULES for call in _sites(path, _isfinite_call)]
    assert calls == []


def test_interval_bounds_only_in_the_helper_module():
    sites = [site for path in MODULES for site in _sites(path, _interval_raise)]
    assert sites == []


def test_every_bound_given_is_named():
    assert finite("x", 2.0, gt=0, le=2.0) == 2.0
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0 and <= 4, got 5\.0$"):
        finite("x", 5.0, ge=0, le=4)
    with pytest.raises(ValueError, match=r"^x must be finite and > 0 and < 4, got 4\.0$"):
        finite("x", np.array([1.0, 4.0, 9.0]), gt=0, lt=4)
    assert rejected([-1.0, 0.0, 3.0, 4.0, math.nan], gt=-1.0, lt=4.0).tolist() == [0, 3, 4]
    assert rejected([-1.0, 0.0, 3.0, 4.0, math.inf], ge=-1.0, le=4.0).tolist() == [4]


@pytest.mark.parametrize("make", [
    lambda: GaussianBeam(0.02, 1.61e-6),
    lambda: footprint(DivergenceAngle(0.1, Convention.FWHM), 600e3),
    lambda: position_from_divergence(7e-3, Branch.DIVERGING, DivergenceMap()),
    lambda: position_from_divergence(np.array([1e-3, 7e-3]), Branch.DIVERGING, DivergenceMap()),
    lambda: ThermalModel(reference_temperature_c=60.0),
    lambda: ThermalModel(anchor_settings=(5e-3, 90e-6)),
    lambda: ChromaticModel(wavelengths=(1.55e-6, 1.53e-6, 1.565e-6)),
    lambda: ChromaticModel(anchor_settings=(0.0, 5e-3)),
    lambda: set_temperature(ActuatorState(), 61.0),
    lambda: set_wavelength(ActuatorState(), 1.6e-6),
    lambda: steer(ActuatorState(), 2e-4, 0.0),
    lambda: PassGeometry(min_elevation_deg=90.0),
    lambda: PassGeometry(max_elevation_deg=90.5),
    lambda: slant_range(0.0, PassGeometry()),
    lambda: elevation_for_range_deg(599e3, PassGeometry()),
], ids=["c_band", "footprint_small_angle", "branch_range", "branch_range_array", "thermal_reference",
        "thermal_anchor_order", "chromatic_wavelength_order", "chromatic_anchor_positive", "temperature",
        "wavelength", "steer", "min_elevation", "max_elevation", "slant_range_elevation", "range_below_altitude"])
def test_interval_bound_rejected_through_the_helper(make):
    with pytest.raises(ValueError, match="must be finite and .*, got"):
        make()


def test_a_member_is_returned_and_its_value_is_rejected_naming_the_choices():
    assert member("branch", Branch.CONVERGING, Branch) is Branch.CONVERGING
    with pytest.raises(ValueError, match=r"^branch must be one of \['diverging', 'converging'\], got 'converging'$"):
        member("branch", "converging", Branch)


@pytest.mark.parametrize("make,named", [
    (lambda: ControlPolicy(strategy="rule_5_sigma"), "strategy"),
    (lambda: ControlPolicy(convention="linear"), "convention"),
    (lambda: ActuatorState(branch="diverging"), "branch"),
    (lambda: DivergenceAngle(90e-6, "fwhm"), "divergence convention"),
], ids=["policy_strategy", "policy_convention", "actuator_branch", "angle_convention"])
def test_an_enum_field_given_its_value_is_rejected_naming_it(make, named):
    # An ``is`` test of each member would send the string down the last branch.
    with pytest.raises(ValueError, match=rf"^{named} must be one of \[.*\], got '"):
        make()


def test_a_branch_assigned_after_construction_is_rejected_before_the_first_tick():
    state = ActuatorState()
    state.branch = "diverging"
    cfg = load_config(None)
    with pytest.raises(ValueError, match=r"^branch must be one of"):
        run_pass(PassGeometry(dt_s=10.0), cfg.policy, cfg.link, state=state)
