"""End-to-end received power, link margin, and maximum data rate.

The budget is the standard gain product written in dB:

    P_rx = P_tx + G_tx + L_pointing + L_path + G_rx + L_insertion + L_misc

with ``G_tx = 16/theta^2`` (theta as full 1/e^2 angle), ``G_rx = (pi D/lambda)^2``
and ``L_path = -20 log10(4 pi L / lambda)``.  Every term in a
:class:`BudgetReport` is a signed dB addend, so the report always sums to its
own received power exactly.

Receiver sensitivity follows the constant photons-per-bit IM/DD scaling
``S(R) = S(R_ref) + 10 log10(R / R_ref)`` dBm.  The reference point is not a
hardware datasheet number here; it is calibrated once from a known operating
point (distance, rate, margin) and then reused, which makes the two design
operating points of a quadratic-path-loss link mutually consistent.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._checks import finite
from .beam_optics import FWHM_PER_FULL_1E2, DivergenceAngle, _tx_gain_kernel, transmit_gain_db

__all__ = [
    "SensitivityModel",
    "LinkConfig",
    "BudgetReport",
    "LinkClosedError",
    "INSERTION_LOSS_DIVERGENCE_ONLY_DB",
    "INSERTION_LOSS_WITH_STEERING_DB",
    "watts_to_dbm",
    "free_space_loss_db",
    "receive_gain_db",
    "received_power_dbm",
    "received_power_column",
    "link_margin_db",
    "budget_report",
    "max_rate",
    "max_rate_column",
    "calibrate_sensitivity",
]

# Measured insertion loss of the transmitter device: divergence control
# alone, and with the anti-vibration/steering stage in the path.
INSERTION_LOSS_DIVERGENCE_ONLY_DB = 0.026
INSERTION_LOSS_WITH_STEERING_DB = 0.032


class LinkClosedError(RuntimeError):
    """The link cannot be closed at any positive data rate."""


@dataclass(frozen=True)
class SensitivityModel:
    """Receiver sensitivity anchored at one rate, scaled as 10*log10(R)."""

    ref_rate: float
    ref_sensitivity_dbm: float

    def __post_init__(self) -> None:
        finite("ref_rate", self.ref_rate, gt=0)
        finite("ref_sensitivity_dbm", self.ref_sensitivity_dbm)

    def sensitivity_dbm(self, rate: float) -> float:
        return self.ref_sensitivity_dbm + 10.0 * math.log10(finite("rate", rate, gt=0) / self.ref_rate)


@dataclass(frozen=True)
class LinkConfig:
    """Everything needed to run the downlink budget.

    ``misc_loss_db`` is the catch-all for atmosphere and receive-optics
    inefficiency; whatever it absorbs is compensated by the calibrated
    sensitivity, so the margin at the anchor point is insensitive to how the
    losses are split.
    """

    tx_power_w: float
    wavelength: float
    tx_divergence: DivergenceAngle
    rx_aperture_diameter: float
    insertion_loss_db: float = INSERTION_LOSS_DIVERGENCE_ONLY_DB
    misc_loss_db: float = 0.0
    sensitivity: Optional[SensitivityModel] = None

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "wavelength", "rx_aperture_diameter"):
            finite(name, getattr(self, name), gt=0)
        for name in ("insertion_loss_db", "misc_loss_db"):
            finite(name, getattr(self, name), ge=0)

    def require_sensitivity(self) -> SensitivityModel:
        """The sensitivity model; raises ``ValueError`` if none has been calibrated."""
        if self.sensitivity is None:
            raise ValueError("config has no sensitivity model; calibrate one first")
        return self.sensitivity

    def with_sensitivity(self, sensitivity: SensitivityModel) -> "LinkConfig":
        return replace(self, sensitivity=sensitivity)

    def with_divergence(self, tx_divergence: DivergenceAngle) -> "LinkConfig":
        return replace(self, tx_divergence=tx_divergence)


# The budget's seven signed dB addends, in the order they are summed:
# (BudgetReport field, table label, unit).  The fields are declared in this order.
_TERMS = (
    ("tx_power_dbm", "tx power", "dBm"),
    ("tx_gain_db", "tx gain", "dB"),
    ("pointing_db", "pointing loss", "dB"),
    ("path_db", "free-space path", "dB"),
    ("rx_gain_db", "rx gain", "dB"),
    ("insertion_db", "insertion loss", "dB"),
    ("misc_db", "misc losses", "dB"),
)


@dataclass(frozen=True)
class BudgetReport:
    """Signed per-term dB breakdown of one budget evaluation.

    ``received_power_dbm`` is the sum of the seven term fields, added in
    ``_TERMS`` order, so the self-consistency invariant holds by construction.
    """

    distance_m: float
    tx_power_dbm: float
    tx_gain_db: float
    pointing_db: float
    path_db: float
    rx_gain_db: float
    insertion_db: float
    misc_db: float
    received_power_dbm: float
    rate_bps: Optional[float] = None
    sensitivity_dbm: Optional[float] = None
    margin_db: Optional[float] = None

    def terms(self) -> dict:
        """The signed dB addends that sum to received_power_dbm, in sum order."""
        return {name: getattr(self, name) for name, _, _ in _TERMS}

    def to_dict(self) -> dict:
        out = {"distance_m": self.distance_m}
        out.update(self.terms())
        out["received_power_dbm"] = self.received_power_dbm
        if self.rate_bps is not None:
            out["rate_bps"] = self.rate_bps
            out["sensitivity_dbm"] = self.sensitivity_dbm
            out["margin_db"] = self.margin_db
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        """Aligned human-readable breakdown."""
        rows = [("distance", f"{self.distance_m / 1e3:.1f} km")]
        rows += [(label, f"{getattr(self, name):+9.3f} {unit}") for name, label, unit in _TERMS]
        rows.append(("received power", f"{self.received_power_dbm:+9.3f} dBm"))
        if self.rate_bps is not None:
            rows.append(("data rate", f"{self.rate_bps / 1e9:9.3f} Gbit/s"))
            rows.append(("sensitivity", f"{self.sensitivity_dbm:+9.3f} dBm"))
            rows.append(("margin", f"{self.margin_db:+9.3f} dB"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def watts_to_dbm(power_w: float) -> float:
    return 10.0 * math.log10(finite("power", power_w, gt=0) * 1e3)


def free_space_loss_db(distance: float, wavelength: float) -> float:
    """Free-space path loss ``20 log10(4 pi L / lambda)``, positive dB."""
    finite("distance", distance, gt=0)
    finite("wavelength", wavelength, gt=0)
    return float(_path_loss_kernel(distance, wavelength))


# The budget's transcendental terms, one numpy kernel each, which the scalar
# APIs call on the float itself (the transmit gain's lives in ``beam_optics``).
# Overflow saturates to inf without a warning.

def _path_loss_kernel(distance: np.ndarray, wavelength: float) -> np.ndarray:
    """Free-space path loss ``20 log10(4 pi L / lambda)``, positive dB."""
    with np.errstate(over="ignore"):
        return 20.0 * np.log10(4.0 * math.pi * distance / wavelength)


def receive_gain_db(aperture_diameter: float, wavelength: float) -> float:
    """Receive antenna gain ``(pi D / lambda)^2`` in dB."""
    finite("aperture diameter", aperture_diameter, gt=0)
    finite("wavelength", wavelength, gt=0)
    return 20.0 * math.log10(math.pi * aperture_diameter / wavelength)


def received_power_dbm(
    config: LinkConfig,
    distance: float,
    pointing_loss_db: float = 0.0,
) -> BudgetReport:
    """Evaluate the budget at one distance and return the full breakdown.

    ``pointing_loss_db`` is a non-negative loss magnitude (0 for ideal
    pointing); it enters the report as a negative addend.
    """
    finite("distance", distance, gt=0)
    finite("pointing_loss_db", pointing_loss_db, ge=0)
    terms = _terms(config, transmit_gain_db(config.tx_divergence), pointing_loss_db,
                   -free_space_loss_db(distance, config.wavelength))
    return BudgetReport(distance, *terms, _sum(terms))


def received_power_column(
    config: LinkConfig,
    distance: np.ndarray,
    pointing_loss_db: np.ndarray,
    divergence_fwhm: np.ndarray,
) -> np.ndarray:
    """Received power, dBm, per element: the ``received_power_dbm`` of
    ``config.with_divergence(FWHM angle)`` at that distance and loss, as the
    same floats.

    The log terms are the numpy kernels that ``received_power_dbm`` calls on
    its floats, and both add the addends of ``_terms`` in one order, so the
    two forms agree bit for bit.  The distances are checked once, as a
    column; NaN angles give NaN.
    """
    finite("distance", distance, gt=0)
    return _sum(_terms(config, _tx_gain_kernel(divergence_fwhm / FWHM_PER_FULL_1E2), pointing_loss_db,
                       -_path_loss_kernel(distance, config.wavelength)))


def _terms(config: LinkConfig, tx_gain, pointing_loss_db, path) -> tuple:
    """The seven signed dB addends in ``_TERMS`` order, floats or columns; ``pointing_loss_db`` is a magnitude."""
    return (watts_to_dbm(config.tx_power_w), tx_gain, -pointing_loss_db, path,
            receive_gain_db(config.rx_aperture_diameter, config.wavelength),
            -config.insertion_loss_db, -config.misc_loss_db)


def _sum(terms: tuple):
    # Left to right from the first addend: starting from 0.0 would turn a -0.0 into +0.0.
    return functools.reduce(operator.add, terms)


def link_margin_db(
    config: LinkConfig,
    distance: float,
    rate: float,
    pointing_loss_db: float = 0.0,
) -> float:
    """Received power minus receiver sensitivity at the given rate, dB."""
    return budget_report(config, distance, rate, pointing_loss_db).margin_db


def budget_report(
    config: LinkConfig,
    distance: float,
    rate: float,
    pointing_loss_db: float = 0.0,
) -> BudgetReport:
    """Full budget breakdown including sensitivity and margin at ``rate``."""
    sensitivity = config.require_sensitivity()
    base = received_power_dbm(config, distance, pointing_loss_db)
    sens = sensitivity.sensitivity_dbm(rate)
    return replace(
        base,
        rate_bps=rate,
        sensitivity_dbm=sens,
        margin_db=base.received_power_dbm - sens,
    )


def max_rate(
    config: LinkConfig,
    distance: float,
    required_margin_db: float,
    pointing_loss_db: float = 0.0,
) -> float:
    """Highest data rate holding the required margin, bit/s.

    Closed form from the log-linear sensitivity model:
    ``R = R_ref * 10**((P_rx - S_ref - m) / 10)``.
    """
    report = received_power_dbm(config, distance, pointing_loss_db)
    rate = float(max_rate_column(config, report.received_power_dbm, required_margin_db))
    try:
        return finite("rate", rate, gt=0)
    except ValueError:
        raise LinkClosedError(
            f"link closed at no rate: received {report.received_power_dbm} dBm "
            f"cannot support margin {required_margin_db} dB"
        ) from None


def max_rate_column(config: LinkConfig, received_dbm: np.ndarray, required_margin_db: float) -> np.ndarray:
    """:func:`max_rate` at each received power, bit/s, as the same floats.

    This is the rate kernel, ``R_ref * 10**x`` through ``np.power``, and
    ``max_rate`` calls it on one float.  An overflow saturates to inf.
    Raises no :class:`LinkClosedError`: where ``max_rate`` raises it the
    element is not a finite positive rate, and the caller decides.
    """
    sensitivity = config.require_sensitivity()
    exponent = (received_dbm - sensitivity.ref_sensitivity_dbm - required_margin_db) / 10.0
    with np.errstate(over="ignore"):
        return sensitivity.ref_rate * np.power(10.0, exponent)


def calibrate_sensitivity(
    config: LinkConfig,
    distance: float,
    rate: float,
    margin_db: float,
) -> SensitivityModel:
    """Back out the sensitivity model from one known operating point.

    Picks ``ref_sensitivity`` so the budget yields exactly ``margin_db`` at
    (distance, rate).  Re-anchoring at the returned model is a fixed point.
    """
    finite("anchor rate", rate, gt=0)
    finite("anchor margin", margin_db)
    report = received_power_dbm(config, distance)
    return SensitivityModel(ref_rate=rate, ref_sensitivity_dbm=report.received_power_dbm - margin_db)
