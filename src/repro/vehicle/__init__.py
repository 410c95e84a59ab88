"""Vehicle layer: specs, the protocol state machine, motion control.

A vehicle in this system is (Ch 2):

* a :class:`VehicleSpec` — the static ``VehicleInfo`` packet contents
  (dimensions, acceleration limits, movement through the intersection);
* a noisy longitudinal plant (:mod:`repro.sensors.plant`) the agent
  steers by commanding velocities;
* a protocol state machine — *Arriving -> Sync -> Request -> Follow* —
  composed from the :mod:`repro.protocol` building blocks, with the
  retransmit and safe-stop clauses of Algorithms 2/4/6/8.

Three agent subclasses in :mod:`repro.vehicle.policies` implement the
vehicle side of the three IM protocols: :class:`VtimVehicle` (execute
velocity command on receipt), :class:`CrossroadsVehicle` (execute at
the commanded time ``TE``) and :class:`AimVehicle`
(propose/slow-down/retry).  They are resolved by policy name through
:mod:`repro.core.registry` via :func:`make_vehicle`.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.vehicle.agent": ("BaseVehicle", "make_vehicle"),
    "repro.vehicle.config": ("AgentConfig",),
    "repro.vehicle.policies": (
        "AimVehicle", "CrossroadsVehicle", "VtimVehicle",
    ),
    "repro.vehicle.record": ("VehicleRecord", "VehicleState"),
    "repro.vehicle.spec": ("VehicleInfo", "VehicleSpec"),
})
