"""The plant's general step as a reference (tests only).

:meth:`repro.sensors.plant.LongitudinalPlant.step` takes a short branch
for a plant at rest under a zero command.  :func:`general_step` is the
step without that branch: the scalar body every state goes through,
drawing through the plant's own stream.  ``tests/test_sensors.py``
checks that the branch and this body agree bit for bit.
"""


def general_step(plant, v_cmd: float, dt: float) -> None:
    """Step ``plant`` in place by the general path of
    :meth:`~repro.sensors.plant.LongitudinalPlant.step`."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = plant.config
    velocity = plant.velocity
    ideal = plant.ideal
    v_cmd = float(min(max(v_cmd, 0.0), cfg.v_max))
    if ideal:
        accel = min(max((v_cmd - velocity) / dt, -cfg.d_max), cfg.a_max)
    elif v_cmd < 0.01 and velocity < 0.05:
        accel = -velocity / dt
    else:
        accel = min(max((v_cmd - velocity) / cfg.tau, -cfg.d_max), cfg.a_max)
        accel += plant.noise.normal(0.0, cfg.accel_noise_std)
    new_v = float(min(max(velocity + accel * dt, 0.0), cfg.v_max))
    plant.position += 0.5 * (velocity + new_v) * dt
    plant.velocity = new_v
    plant.time += dt
    measured = new_v if ideal else cfg.encoder.measure(new_v, plant.noise)
    plant._measured_position += measured * dt
    if not ideal and new_v > 0.0:
        plant._odometry_error_bound += 0.5 * cfg.encoder.velocity_resolution * dt
