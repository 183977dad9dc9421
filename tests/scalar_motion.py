"""The lens motion rule as a per-tick scalar loop: the oracle for ``actuator.track`` and ``actuator.step``.

``track`` walks the rule only along the stretches where the lens slews;
these functions step it every tick, in a loop written apart from the
package's, so that tests compare both against an independent statement of
the rule.
"""

import math


def scalar_track(state, targets, dt):
    """Command each target in turn and advance the lens one tick of ``dt``; the position after each tick.

    Leaves ``state`` as after the last tick; an empty sequence leaves it untouched.
    """
    travel = state.motor_speed * dt
    quantum, stroke = state.step_size, state.dmap.max_travel
    lens, time_s = state.lens_position, state.time_s
    positions = []
    for target in targets:
        time_s += dt
        remaining = target - lens
        if abs(remaining) <= travel:
            lens = target
        else:
            lens += math.copysign(travel, remaining)
            if quantum > 0.0:
                lens = min(max(round(lens / quantum) * quantum, -stroke), stroke)
        positions.append(lens)
    if positions:
        state.lens_position, state.target_position, state.time_s = lens, target, time_s
    return positions


def scalar_step(state, dt):
    """One tick toward the current target (the per-tick form of ``actuator.step``)."""
    scalar_track(state, (state.target_position,), dt)
    return state
