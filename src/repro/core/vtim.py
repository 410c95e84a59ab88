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

from typing import Optional, Tuple

from repro.core.base import BaseIM, IMConfig
from repro.core.compute import ComputeModel, LinearComputeModel
from repro.core.scheduler import ConflictScheduler
from repro.kinematics.arrival import VtSolver
from repro.des import Environment
from repro.network.channel import Radio
from repro.network.messages import (
    CrossingRequest,
    ExitNotification,
    Message,
    VelocityCommand,
)

__all__ = ["VtimIM"]


class VtimIM(BaseIM):
    """Velocity-transaction IM with the worst-case-RTD safety buffer.

    Parameters
    ----------
    env, radio, config:
        See :class:`~repro.core.base.BaseIM`.
    scheduler:
        Conflict-aware FCFS slot assigner (shared geometry analysis).
    compute:
        Defaults to the calibrated :class:`LinearComputeModel`.
    """

    def __init__(
        self,
        env: Environment,
        radio: Radio,
        scheduler: ConflictScheduler,
        config: Optional[IMConfig] = None,
        compute: Optional[ComputeModel] = None,
    ):
        super().__init__(
            env,
            radio,
            compute if compute is not None else LinearComputeModel(),
            config,
        )
        self.scheduler = scheduler

    @property
    def rtd_buffer(self) -> float:
        """The extra buffer this policy must assume (Ch 4)."""
        return self.config.wc_rtd * self.config.v_max

    def handle_crossing(self, message: Message) -> Tuple[Optional[Message], dict]:
        if not isinstance(message, CrossingRequest):
            return None, {"reservations": 0}
        self.scheduler.prune(self.env.now)
        info = message.vehicle_info
        self.scheduler.note_request(info.vehicle_id, info.movement, self.env.now)
        spec = info.spec
        distance = max(message.dt, 0.01)
        v_init = min(message.vc, spec.v_max)
        v_max = min(spec.v_max, self.config.v_max)
        start = self.env.now  # naive: plans as if the command applied now
        solver = VtSolver(
            distance, v_init, start, spec.a_max, spec.d_max, v_max,
            v_min=self.config.v_min, v_floor=self.config.v_arrive_floor,
        )
        if solver.etoa is None:
            return None, {"reservations": len(self.scheduler)}
        assignment = self.scheduler.assign(
            vehicle_id=info.vehicle_id,
            movement=info.movement,
            planner=solver,
            etoa=solver.etoa,
            body_length=spec.length,
            buffer=info.buffer + self.rtd_buffer,
        )
        work = {"reservations": len(self.scheduler)}
        if assignment is None:
            return None, work  # vehicle will retransmit
        self.stats.accepts += 1
        self.note_grant(message.sender, message.seq)
        response = VelocityCommand(
            sender=self.config.address,
            receiver=message.sender,
            vt=assignment.plan.profile.final_velocity,
            toa=assignment.toa,
            in_reply_to=message.seq,
        )
        return response, work

    def handle_exit(self, message: ExitNotification) -> None:
        # Vehicle ids are encoded in the sender address ("V<id>").
        vehicle_id = _vehicle_id_from_address(message.sender)
        if vehicle_id is not None:
            self.scheduler.release(vehicle_id)
        self.scheduler.prune(self.env.now)

    def invalidate_quiet(self, now: float) -> int:
        """Drop bookings whose owner should long have cleared the box.

        In fault-free runs every exit notification arrives and the book
        is already clean; under lossy/blackout regimes this watchdog
        sweep is what unblocks cross traffic.
        """
        dropped = self.scheduler.prune(now, grace=self.config.quiet_timeout)
        self.stats.invalidations += dropped
        return dropped


def _vehicle_id_from_address(address: str) -> Optional[int]:
    """Parse the numeric id out of a "V<id>" vehicle address."""
    if address.startswith("V"):
        try:
            return int(address[1:])
        except ValueError:
            return None
    return None
