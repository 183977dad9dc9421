"""Actuator emulation: motion profile, thermal drift, and LUT correction.

Runs the emulator through a full traverse, shows the divergence error a cold
soak introduces at several settings, and then builds the lookup-table
correction that rezeros the output within the lens stroke.
"""

from beamdiv.actuator import (
    ActuatorState,
    Branch,
    actual_divergence,
    command_divergence,
    run_script,
    set_temperature,
    step,
    temperature_corrected_position,
)

state = ActuatorState()
print("=== Full traverse: converging max to diverging max ===")
state.lens_position = state.target_position = -state.dmap.max_travel
command_divergence(state, state.dmap.diverging_max, Branch.DIVERGING)
duration = abs(state.target_position - state.lens_position) / state.motor_speed
print(f"commanded {state.target_position * 1e3:+.2f} mm, planned duration {duration:.2f} s")
t = 0.0
while state.in_motion:
    step(state, 0.05)
    t += 0.05
print(f"arrived after {t:.2f} s at {state.lens_position * 1e3:+.2f} mm "
      f"({actual_divergence(state) * 1e3:.2f} mrad)")

print()
print("=== Cold soak at -30 C: what each setting really produces ===")
state = ActuatorState()
set_temperature(state, -30.0)
print(f"{'setting':>10} {'actual':>12} {'error':>9}")
for theta in (90e-6, 1e-3, 3e-3, 5e-3):
    command_divergence(state, theta, Branch.CONVERGING)
    step(state, 0.9)
    actual = actual_divergence(state)
    print(f"{theta * 1e6:7.0f} ur {actual * 1e6:9.0f} ur {(actual - theta) / theta * 100:+8.1f} %")

print()
print("=== Lookup-table correction (converging branch) ===")
print(f"{'target':>10} {'T [C]':>6} {'lens pos':>10} {'achieved':>12} {'residual':>9}")
state = ActuatorState()
for temp in (-30.0, 20.0, 60.0):
    set_temperature(state, temp)
    for theta in (90e-6, 1e-3, 5e-3):
        x = temperature_corrected_position(theta, temp, state.thermal, state.dmap, Branch.CONVERGING)
        state.branch = Branch.CONVERGING
        state.lens_position = state.target_position = x
        achieved = actual_divergence(state)
        print(f"{theta * 1e6:7.0f} ur {temp:6.0f} {x * 1e3:+8.3f} mm {achieved * 1e6:9.1f} ur "
              f"{(achieved - theta) / theta * 100:+8.4f} %")
print("note the 90 urad corrections park the lens past the nominal zero:")
print("the thermal defocus is cancelled by crossing the collimation point")

print()
print("=== Scripted HIL-style run (the CLI 'emulate' interface) ===")
script = [
    "set-divergence 5e-3 diverging",
    "step 0.9",
    "set-temperature -30",
    "query",
    "steer 50e-6 -20e-6",
]
trace = run_script(script)
for row in trace:
    print(f"t={row['time_s']:4.1f} s  cmd={row['command']:28s} "
          f"actual={row['actual_divergence_rad'] * 1e6:8.1f} urad")
