"""Crossroads: the time-sensitive VT-IM (paper Ch 6 / Algorithms 7-8).

The reply to a request stamped ``TT`` carries an execution time::

    TE = TT + WC-RTD

The vehicle holds its current velocity ``VC`` until its (synchronised)
clock reads ``TE`` and only then begins the commanded trajectory.  Its
position at ``TE`` is therefore deterministic::

    DE = DT - VC * (TE - TT)

so the IM can plan from ``(DE, VC, TE)`` exactly, and **no RTD buffer
is needed** — only the sensing + sync buffer.  This is the whole trick,
and the whole paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.base import IMConfig, SchedulerIM
from repro.core.scheduler import ConflictScheduler, SlotAssignment
from repro.kinematics.arrival import (
    distance_at_te,
    earliest_arrival_time,
    plan_arrival,
)
from repro.network.messages import CrossingRequest, CrossroadsCommand
from repro.vehicle.spec import VehicleInfo

__all__ = ["CrossroadsIM", "book_crossroads"]


def book_crossroads(
    *, scheduler: ConflictScheduler, config: IMConfig, info: VehicleInfo,
    tt: float, dt: float, vc: float, reply_at: float,
) -> Optional[Tuple[float, SlotAssignment]]:
    """Book one Crossroads request ``(TT, DT, VC)``.

    ``TE = TT + WC-RTD``, or ``reply_at`` (the earliest the reply can
    reach the vehicle) when that is later.  The IM plans from the
    deterministic state at TE (:func:`distance_at_te`) and books
    ``info.buffer`` alone: no RTD term.  Returns ``(TE, booking)``, or
    None when no slot is reachable.  The live IM and the analytic
    engine both book through this function.
    """
    spec = info.spec
    te = max(tt + config.wc_rtd, reply_at)
    de = distance_at_te(dt=dt, vc=vc, tt=tt, te=te)
    v_init = min(vc, spec.v_max)
    v_max = min(spec.v_max, config.v_max)

    def planner(toa):
        return plan_arrival(
            de, v_init, te, toa, spec.a_max, spec.d_max, v_max,
            v_min=config.v_min, launch_below=config.v_arrive_floor,
        )

    assignment = scheduler.assign(
        vehicle_id=info.vehicle_id,
        movement=info.movement,
        planner=planner,
        etoa=te + earliest_arrival_time(de, v_init, v_max, spec.a_max),
        body_length=spec.length,
        buffer=info.buffer,
    )
    return None if assignment is None else (te, assignment)


class CrossroadsIM(SchedulerIM):
    """The time-sensitive intersection manager: a
    :class:`~repro.core.base.SchedulerIM` that books through
    :func:`book_crossroads` and replies with TE."""

    def book(self, message: CrossingRequest) -> Optional[CrossroadsCommand]:
        booked = book_crossroads(
            scheduler=self.scheduler, config=self.config,
            info=message.vehicle_info, tt=message.tt, dt=message.dt,
            vc=message.vc, reply_at=self.env.now + self.config.wc_network,
        )
        if booked is None:
            return None
        te, assignment = booked
        return CrossroadsCommand(
            sender=self.config.address, receiver=message.sender, te=te,
            toa=assignment.toa, vt=assignment.v_cross, in_reply_to=message.seq,
        )
