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

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .beam_optics import Convention, DivergenceAngle

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
    "link_margin_db",
    "max_rate",
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
        if not (math.isfinite(self.ref_rate) and self.ref_rate > 0.0):
            raise ValueError(f"ref_rate must be finite and > 0, got {self.ref_rate}")
        if not math.isfinite(self.ref_sensitivity_dbm):
            raise ValueError("ref_sensitivity_dbm must be finite")

    def sensitivity_dbm(self, rate: float) -> float:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return self.ref_sensitivity_dbm + 10.0 * math.log10(rate / self.ref_rate)


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
        if not (math.isfinite(self.tx_power_w) and self.tx_power_w > 0.0):
            raise ValueError(f"tx_power_w must be finite and > 0, got {self.tx_power_w}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(f"wavelength must be finite and > 0, got {self.wavelength}")
        if not (math.isfinite(self.rx_aperture_diameter) and self.rx_aperture_diameter > 0.0):
            raise ValueError(f"rx_aperture_diameter must be > 0, got {self.rx_aperture_diameter}")
        for name in ("insertion_loss_db", "misc_loss_db"):
            loss = getattr(self, name)
            if not (math.isfinite(loss) and loss >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0 dB, got {loss}")

    def with_sensitivity(self, sensitivity: SensitivityModel) -> "LinkConfig":
        return replace(self, sensitivity=sensitivity)

    def with_divergence(self, tx_divergence: DivergenceAngle) -> "LinkConfig":
        return replace(self, tx_divergence=tx_divergence)


@dataclass(frozen=True)
class BudgetReport:
    """Signed per-term dB breakdown of one budget evaluation.

    ``received_power_dbm`` is computed as the sum of the seven term fields,
    so the self-consistency invariant holds by construction.
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
        """The signed dB addends that sum to received_power_dbm."""
        return {
            "tx_power_dbm": self.tx_power_dbm,
            "tx_gain_db": self.tx_gain_db,
            "pointing_db": self.pointing_db,
            "path_db": self.path_db,
            "rx_gain_db": self.rx_gain_db,
            "insertion_db": self.insertion_db,
            "misc_db": self.misc_db,
        }

    def to_dict(self) -> dict:
        out = {"distance_m": self.distance_m}
        out.update(self.terms())
        out["received_power_dbm"] = self.received_power_dbm
        if self.rate_bps is not None:
            out["rate_bps"] = self.rate_bps
            out["sensitivity_dbm"] = self.sensitivity_dbm
            out["margin_db"] = self.margin_db
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self) -> str:
        """Aligned human-readable breakdown."""
        rows = [
            ("distance", f"{self.distance_m / 1e3:.1f} km"),
            ("tx power", f"{self.tx_power_dbm:+9.3f} dBm"),
            ("tx gain", f"{self.tx_gain_db:+9.3f} dB"),
            ("pointing loss", f"{self.pointing_db:+9.3f} dB"),
            ("free-space path", f"{self.path_db:+9.3f} dB"),
            ("rx gain", f"{self.rx_gain_db:+9.3f} dB"),
            ("insertion loss", f"{self.insertion_db:+9.3f} dB"),
            ("misc losses", f"{self.misc_db:+9.3f} dB"),
            ("received power", f"{self.received_power_dbm:+9.3f} dBm"),
        ]
        if self.rate_bps is not None:
            rows.append(("data rate", f"{self.rate_bps / 1e9:9.3f} Gbit/s"))
            rows.append(("sensitivity", f"{self.sensitivity_dbm:+9.3f} dBm"))
            rows.append(("margin", f"{self.margin_db:+9.3f} dB"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0:
        raise ValueError(f"power must be > 0 W, got {power_w}")
    return 10.0 * math.log10(power_w * 1e3)


def free_space_loss_db(distance: float, wavelength: float) -> float:
    """Free-space path loss ``20 log10(4 pi L / lambda)``, positive dB."""
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


def receive_gain_db(aperture_diameter: float, wavelength: float) -> float:
    """Receive antenna gain ``(pi D / lambda)^2`` in dB."""
    if aperture_diameter <= 0.0:
        raise ValueError(f"aperture diameter must be > 0, got {aperture_diameter}")
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
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    if pointing_loss_db < 0.0:
        raise ValueError("pointing_loss_db is a loss magnitude, must be >= 0")
    theta = config.tx_divergence.to(Convention.FULL_1E2)
    tx_power = watts_to_dbm(config.tx_power_w)
    tx_gain = 10.0 * math.log10(16.0 / theta.value**2)
    path = -free_space_loss_db(distance, config.wavelength)
    rx_gain = receive_gain_db(config.rx_aperture_diameter, config.wavelength)
    received = (
        tx_power
        + tx_gain
        - pointing_loss_db
        + path
        + rx_gain
        - config.insertion_loss_db
        - config.misc_loss_db
    )
    return BudgetReport(
        distance_m=distance,
        tx_power_dbm=tx_power,
        tx_gain_db=tx_gain,
        pointing_db=-pointing_loss_db,
        path_db=path,
        rx_gain_db=rx_gain,
        insertion_db=-config.insertion_loss_db,
        misc_db=-config.misc_loss_db,
        received_power_dbm=received,
    )


def link_margin_db(
    config: LinkConfig,
    distance: float,
    rate: float,
    pointing_loss_db: float = 0.0,
) -> float:
    """Received power minus receiver sensitivity at the given rate, dB."""
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if config.sensitivity is None:
        raise ValueError("config has no sensitivity model; calibrate one first")
    report = received_power_dbm(config, distance, pointing_loss_db)
    return report.received_power_dbm - config.sensitivity.sensitivity_dbm(rate)


def budget_report(
    config: LinkConfig,
    distance: float,
    rate: float,
    pointing_loss_db: float = 0.0,
) -> BudgetReport:
    """Full budget breakdown including sensitivity and margin at ``rate``."""
    if config.sensitivity is None:
        raise ValueError("config has no sensitivity model; calibrate one first")
    base = received_power_dbm(config, distance, pointing_loss_db)
    sens = config.sensitivity.sensitivity_dbm(rate)
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
    if config.sensitivity is None:
        raise ValueError("config has no sensitivity model; calibrate one first")
    report = received_power_dbm(config, distance, pointing_loss_db)
    exponent = (
        report.received_power_dbm
        - config.sensitivity.ref_sensitivity_dbm
        - required_margin_db
    ) / 10.0
    rate = config.sensitivity.ref_rate * 10.0**exponent
    if not (math.isfinite(rate) and rate > 0.0):
        raise LinkClosedError(
            f"link closed at no rate: received {report.received_power_dbm} dBm "
            f"cannot support margin {required_margin_db} dB"
        )
    return rate


def calibrate_sensitivity(
    config: LinkConfig,
    distance: float,
    rate: float,
    margin_db: float,
    pointing_loss_db: float = 0.0,
) -> SensitivityModel:
    """Back out the sensitivity model from one known operating point.

    Picks ``ref_sensitivity`` so the budget yields exactly ``margin_db`` at
    (distance, rate).  Re-anchoring at the returned model is a fixed point.
    """
    if rate <= 0.0:
        raise ValueError(f"anchor rate must be > 0, got {rate}")
    if not math.isfinite(margin_db):
        raise ValueError("anchor margin must be finite")
    report = received_power_dbm(config, distance, pointing_loss_db)
    return SensitivityModel(ref_rate=rate, ref_sensitivity_dbm=report.received_power_dbm - margin_db)
