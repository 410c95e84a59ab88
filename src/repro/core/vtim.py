"""Plain Velocity-Transaction IM (paper Ch 4 / Algorithms 1-2).

On a request ``(VC, DT, VehicleInfo)`` the IM plans from *its own
current time* as if the vehicle executed the reply instantly — which it
cannot: the reply lands one RTD later, by which point the vehicle has
moved up to ``v * RTD`` metres.  The policy is kept safe the way the
paper describes: every vehicle is scheduled with an **extra RTD buffer**
of ``v_max * WC-RTD`` (0.45 m on the testbed) on top of the sensing
buffer, which is precisely what destroys its throughput at high flow.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import IMConfig, SchedulerIM
from repro.core.scheduler import ConflictScheduler, SlotAssignment
from repro.kinematics.arrival import VtSolver
from repro.network.messages import CrossingRequest, VelocityCommand
from repro.vehicle.spec import VehicleInfo

__all__ = ["VtimIM", "book_vtim", "rtd_buffer"]


def rtd_buffer(config: IMConfig) -> float:
    """The extra buffer VT-IM must assume, ``v_max * WC-RTD`` (Ch 4)."""
    return config.wc_rtd * config.v_max


def book_vtim(
    *, scheduler: ConflictScheduler, config: IMConfig, info: VehicleInfo,
    dt: float, vc: float, now: float,
) -> Optional[SlotAssignment]:
    """Book one VT-IM request ``(DT, VC)``.

    The IM plans from ``now`` as if the vehicle executed the command on
    receipt, from ``DT`` floored at 0.01 m, with a
    :class:`~repro.kinematics.arrival.VtSolver`, and books
    ``info.buffer`` plus :func:`rtd_buffer`.  Returns the booking, or
    None when no slot is reachable.  The live IM and the analytic
    engine both book through this function.
    """
    spec = info.spec
    solver = VtSolver(
        max(dt, 0.01), min(vc, spec.v_max), now, spec.a_max, spec.d_max,
        min(spec.v_max, config.v_max),
        v_min=config.v_min, v_floor=config.v_arrive_floor,
    )
    if solver.etoa is None:
        return None
    return scheduler.assign(
        vehicle_id=info.vehicle_id,
        movement=info.movement,
        planner=solver,
        etoa=solver.etoa,
        body_length=spec.length,
        buffer=info.buffer + rtd_buffer(config),
    )


class VtimIM(SchedulerIM):
    """Velocity-transaction IM with the worst-case-RTD safety buffer: a
    :class:`~repro.core.base.SchedulerIM` that books through
    :func:`book_vtim` and replies with a bare velocity."""

    def book(self, message: CrossingRequest) -> Optional[VelocityCommand]:
        assignment = book_vtim(
            scheduler=self.scheduler, config=self.config,
            info=message.vehicle_info, dt=message.dt, vc=message.vc,
            now=self.env.now,  # naive: plans as if the command applied now
        )
        if assignment is None:
            return None
        return VelocityCommand(
            sender=self.config.address, receiver=message.sender,
            vt=assignment.plan.profile.final_velocity, toa=assignment.toa,
            in_reply_to=message.seq,
        )
