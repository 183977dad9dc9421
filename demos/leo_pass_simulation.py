"""Closed-loop LEO pass: adaptive divergence against a jitter schedule.

Simulates a 600 km overhead pass clipped at the 1200 km range limit, twice:
once with ideal pointing (the design case: 10 Gbit/s at closest approach,
2.5 Gbit/s at the edges) and once with a time-varying jitter schedule that
the adaptive policy absorbs by widening the beam.
"""

import math

from beamdiv.config import DESIGN_ANCHOR, DESIGN_LINK, DESIGN_POLICY
from beamdiv.link_budget import calibrate_sensitivity
from beamdiv.sim import PassGeometry, pass_profile, run_pass, write_steps_csv

# The design link, calibrated at its 600 km / 10 Gbit/s / 5 dB anchor, and
# the exact-optimum policy holding that margin.
link = DESIGN_LINK.with_sensitivity(calibrate_sensitivity(DESIGN_LINK, *DESIGN_ANCHOR))
geometry = PassGeometry(altitude_m=600e3, max_range_m=1200e3, dt_s=1.0)
policy = DESIGN_POLICY

print("=== Ideal pointing (sigma = 0): the design case in the loop ===")
ideal = run_pass(geometry, policy, link, jitter=0.0, seed=0)
mid = ideal.steps[len(ideal.steps) // 2]
edge = ideal.steps[0]
print(f"pass duration {ideal.summary['duration_s']:.0f} s over {ideal.summary['ticks']} ticks")
print(f"closest approach {mid['slant_range_m'] / 1e3:6.0f} km -> {mid['rate_bps'] / 1e9:6.2f} Gbit/s "
      f"at {mid['margin_db']:.1f} dB margin")
print(f"window edge      {edge['slant_range_m'] / 1e3:6.0f} km -> {edge['rate_bps'] / 1e9:6.2f} Gbit/s "
      f"at {edge['margin_db']:.1f} dB margin")
print(f"delivered {ideal.summary['total_bits'] / 8e9:.1f} GB in one pass")

print()
print("=== Degrading pointing mid-pass (vibration episode) ===")


def jitter_schedule(t: float) -> float:
    base = 10e-6
    episode = 250e-6 * math.exp(-((t - 40.0) / 25.0) ** 2)
    return base + episode


# run_pass takes one jitter value per tick: evaluate the schedule at the pass's tick times.
jitter = [jitter_schedule(t) for t in pass_profile(geometry)["t_s"].tolist()]
shaken = run_pass(geometry, policy, link, jitter=jitter, seed=0)
print(f"{'t [s]':>7} {'range [km]':>10} {'sigma [ur]':>10} {'theta [ur]':>10} {'rate [Gb/s]':>11}")
for i in range(0, len(shaken.steps), len(shaken.steps) // 10):
    s = shaken.steps[i]
    print(f"{s['t_s']:7.0f} {s['slant_range_m'] / 1e3:10.0f} {s['sigma_p_rad'] * 1e6:10.1f} "
          f"{s['theta_actual_rad'] * 1e6:10.1f} {s['rate_bps'] / 1e9:11.2f}")
loss = (1.0 - shaken.summary["total_bits"] / ideal.summary["total_bits"]) * 100
print(f"episode cost: {loss:.1f} % of the pass throughput "
      f"({shaken.summary['total_bits'] / 8e9:.1f} GB delivered)")

write_steps_csv(shaken.steps, "pass_with_jitter.csv")
print("\nwrote pass_with_jitter.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    steps = shaken.steps
    t = steps["t_s"]
    fig, axes = plt.subplots(3, 1, figsize=(8, 7), sharex=True)
    axes[0].plot(t, steps["sigma_p_rad"] * 1e6)
    axes[0].set_ylabel("sigma_p [urad]")
    axes[1].plot(t, steps["theta_actual_rad"] * 1e6, label="achieved")
    axes[1].plot(t, steps["theta_commanded_rad"] * 1e6, "--", label="commanded")
    axes[1].set_ylabel("divergence [urad]")
    axes[1].legend()
    axes[2].plot(t, steps["rate_bps"] / 1e9)
    axes[2].plot(t, ideal.steps["rate_bps"] / 1e9, "--", label="ideal pointing")
    axes[2].set_ylabel("rate [Gbit/s]")
    axes[2].set_xlabel("time from culmination [s]")
    axes[2].legend()
    fig.tight_layout()
    fig.savefig("leo_pass_simulation.png", dpi=150)
    print("saved leo_pass_simulation.png")
except ImportError:
    print("matplotlib not available; skipping the plot")
