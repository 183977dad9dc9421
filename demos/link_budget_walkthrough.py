"""Downlink budget for the 2 W / 90 urad / 35 cm design.

Calibrates the receiver-sensitivity model once at the near operating point
(600 km, 10 Gbit/s, 5 dB margin), then shows that the far point
(1200 km, 2.5 Gbit/s) comes out at the same margin for free, and sweeps the
supported data rate across the 600-1200 km window.
"""

import numpy as np

from beamdiv.beam_optics import Convention, DivergenceAngle
from beamdiv.config import DESIGN_ANCHOR, DESIGN_LINK, DESIGN_POLICY
from beamdiv.link_budget import budget_report, calibrate_sensitivity, max_rate

sensitivity = calibrate_sensitivity(DESIGN_LINK, *DESIGN_ANCHOR)
config = DESIGN_LINK.with_sensitivity(sensitivity)
margin_db = DESIGN_POLICY.margin_floor_db
print(f"calibrated sensitivity: {sensitivity.ref_sensitivity_dbm:.2f} dBm at "
      f"{sensitivity.ref_rate / 1e9:.0f} Gbit/s (scales 10 log10 R)")

print()
print("=== Budget at closest approach (600 km, 10 Gbit/s) ===")
print(budget_report(config, 600e3, 10e9).table())

print()
print("=== Budget at longest approach (1200 km, 2.5 Gbit/s) ===")
print(budget_report(config, 1200e3, 2.5e9).table())

print()
print("=== Max rate holding 5 dB margin across the window ===")
print(f"{'range [km]':>10} {'rate [Gbit/s]':>14}")
for distance in np.linspace(600e3, 1200e3, 7):
    rate = max_rate(config, distance, margin_db)
    print(f"{distance / 1e3:10.0f} {rate / 1e9:14.2f}")

print()
print("=== Cost of a wider beam at 600 km (5 dB margin held) ===")
for theta_urad in (90, 150, 300, 1000):
    wide = config.with_divergence(DivergenceAngle(theta_urad * 1e-6, Convention.FWHM))
    rate = max_rate(wide, 600e3, margin_db)
    print(f"theta = {theta_urad:5d} urad : {rate / 1e9:8.3f} Gbit/s")
