"""Choosing the beam divergence for a given pointing accuracy.

The running example is a CubeSat whose vendor ADCS spec is 0.021 deg; after
on-orbit calibration such systems have reached ~50x better pointing.  A
divergence sized for the vendor spec wastes most of the transmit gain that
the calibrated pointing could support -- which is exactly the case for an
adaptive transmitter.
"""

import math

import numpy as np

from beamdiv.pointing import (
    GainConvention,
    gain_improvement_db,
    optimal_divergence,
    pointing_loss_db,
    rule_of_thumb_divergence,
)

sigma_adcs = math.radians(0.021)  # 0.021 deg vendor 3-sigma/3-axis spec taken as sigma
sigma_calibrated = sigma_adcs / 50.0  # after on-orbit calibration (~50x)

print("=== Rule of thumb (theta = 5 sigma) ===")
for label, sigma in (("vendor spec", sigma_adcs), ("calibrated", sigma_calibrated)):
    theta = rule_of_thumb_divergence(sigma)
    print(f"{label:12} sigma = {sigma * 1e6:7.2f} urad -> theta = {theta * 1e6:8.1f} urad")

print()
print("=== Exact optimum of gain x pointing loss ===")
print(f"{'sigma [urad]':>12} {'5-sigma rule':>14} {'quadratic opt':>14} {'linear opt':>12}")
for sigma in (sigma_adcs, sigma_adcs / 10, sigma_adcs / 50):
    rule = rule_of_thumb_divergence(sigma)
    quad = optimal_divergence(sigma, GainConvention.QUADRATIC)
    lin = optimal_divergence(sigma, GainConvention.LINEAR)
    print(f"{sigma * 1e6:12.2f} {rule * 1e6:11.1f} ur {quad * 1e6:11.1f} ur {lin * 1e6:9.1f} ur")

print()
print("=== What narrowing the beam buys (linear gain convention) ===")
wide = rule_of_thumb_divergence(sigma_adcs)
for target, note in ((39e-6, "4 cm aperture limit"), (90e-6, "2 cm aperture limit")):
    db = gain_improvement_db(wide, target, GainConvention.LINEAR)
    print(f"{wide * 1e3:.2f} mrad -> {target * 1e6:5.1f} urad : +{db:5.2f} dB   ({note})")

print()
print("=== Pointing loss along the divergence sweep (sigma = vendor spec) ===")
for theta in np.array([0.5, 1.0, 2.0, 5.0]) * sigma_adcs:
    print(f"theta = {theta / sigma_adcs:4.1f} sigma : L_p = {pointing_loss_db(sigma_adcs, theta):7.2f} dB")
print("narrow beams are punished hard; the optimum balances the two slopes")
