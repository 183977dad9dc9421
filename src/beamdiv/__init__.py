"""Adaptive beam-divergence transmitter modeling for free-space laser links.

Subpackages:

- :mod:`beamdiv.beam_optics` -- divergence conventions, truncated-Gaussian
  far field, transmit gain, footprint.
- :mod:`beamdiv.pointing` -- jitter loss and optimum-divergence selection.
- :mod:`beamdiv.link_budget` -- received power, margin, max data rate.
- :mod:`beamdiv.actuator` -- emulator of the lens-based divergence hardware
  with thermal/chromatic/axis-stability models.
- :mod:`beamdiv.calibration` -- reduction of bench measurements into device
  models.
- :mod:`beamdiv.sim` -- LEO pass geometry and the closed control loop.
- :mod:`beamdiv.cli` -- ``beamdiv`` command-line entry point.
"""

from .beam_optics import (
    AperturedBeam,
    Convention,
    DivergenceAngle,
    GaussianBeam,
    convert_divergence,
    farfield_intensity,
    footprint,
    transmit_gain,
    transmit_gain_db,
    truncated_fwhm,
    untruncated_divergence,
)
from .link_budget import (
    BudgetReport,
    LinkConfig,
    SensitivityModel,
    calibrate_sensitivity,
    free_space_loss_db,
    link_margin_db,
    max_rate,
    received_power_dbm,
)
from .pointing import (
    GainConvention,
    gain_improvement_db,
    optimal_divergence,
    pointing_loss,
    pointing_loss_db,
    rule_of_thumb_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Convention",
    "DivergenceAngle",
    "GaussianBeam",
    "AperturedBeam",
    "convert_divergence",
    "untruncated_divergence",
    "farfield_intensity",
    "truncated_fwhm",
    "transmit_gain",
    "transmit_gain_db",
    "footprint",
    "GainConvention",
    "pointing_loss",
    "pointing_loss_db",
    "rule_of_thumb_divergence",
    "optimal_divergence",
    "gain_improvement_db",
    "LinkConfig",
    "SensitivityModel",
    "BudgetReport",
    "free_space_loss_db",
    "received_power_dbm",
    "link_margin_db",
    "max_rate",
    "calibrate_sensitivity",
]
