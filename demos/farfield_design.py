"""Far-field design walkthrough: why a 1.78 cm beam behind a 2 cm aperture.

Sweeps the truncation ratio to show the gain/width trade, evaluates the
design point's far-field profile, and prints the ground footprint at the
operating distances.  Saves a profile plot if matplotlib is available.
"""

import numpy as np

from beamdiv.beam_optics import (
    AperturedBeam,
    Convention,
    DivergenceAngle,
    GaussianBeam,
    farfield_intensity,
    footprint,
    transmit_gain_db,
    truncated_fwhm,
    untruncated_divergence,
)

WAVELENGTH = 1.55e-6
APERTURE = 0.02

print("=== Truncation-ratio sweep (aperture fixed at 2 cm) ===")
print(f"{'a/w':>6} {'beam 1/e2 diam':>15} {'far-field FWHM':>15}")
for ratio in (2.0, 1.5, 1.25, 1.12, 1.0, 0.9):
    beam = GaussianBeam(waist_diameter_1e2=APERTURE / ratio, wavelength=WAVELENGTH)
    fwhm = truncated_fwhm(AperturedBeam(beam, APERTURE))
    print(f"{ratio:6.2f} {beam.waist_diameter_1e2 * 1e3:12.2f} mm {fwhm.value * 1e6:12.2f} urad")

print()
print("=== Design point: 17.8 mm beam, 2 cm aperture, 1550 nm ===")
design = AperturedBeam(GaussianBeam(0.0178, WAVELENGTH), APERTURE)
fwhm = truncated_fwhm(design)
untrunc = untruncated_divergence(design.beam)
print(f"truncation ratio      {design.truncation_ratio:.4f}")
print(f"untruncated full 1/e2 {untrunc.value * 1e6:.2f} urad "
      f"(FWHM {untrunc.to(Convention.FWHM).value * 1e6:.2f} urad)")
print(f"truncated FWHM        {fwhm.value * 1e6:.2f} urad  <- the collimated minimum")
print(f"transmit gain         {transmit_gain_db(fwhm):.2f} dB")

print()
print("=== Ground footprint of the collimated beam ===")
for distance in (600e3, 1200e3):
    print(f"at {distance / 1e3:6.0f} km : {footprint(fwhm, distance):7.1f} m")
wide = DivergenceAngle(5e-3, Convention.FWHM)
print(f"wide 5 mrad beam at 600 km : {footprint(wide, 600e3) / 1e3:.1f} km (acquisition mode)")

angles = np.linspace(0.0, 150e-6, 301)
profile = farfield_intensity(design, angles)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(angles * 1e6, profile, label="truncated Gaussian (a/w = 1.12)")
    gauss = np.exp(-8.0 * angles**2 / untrunc.value**2)
    ax.plot(angles * 1e6, gauss, "--", label="untruncated Gaussian")
    ax.axhline(0.5, color="gray", lw=0.6)
    ax.axvline(fwhm.value / 2 * 1e6, color="gray", lw=0.6)
    ax.set_xlabel("off-axis angle [urad]")
    ax.set_ylabel("normalized far-field intensity")
    ax.legend()
    fig.tight_layout()
    fig.savefig("farfield_design.png", dpi=150)
    print("\nsaved farfield_design.png")
except ImportError:
    print("\nmatplotlib not available; skipping the profile plot")
