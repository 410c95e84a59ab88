"""The three policy agents, as thin compositions over the protocol layer.

Each class supplies only its :meth:`~repro.vehicle.agent.BaseVehicle._request_phase`
— one request/response exchange per loop iteration via the shared
:meth:`~repro.vehicle.agent.BaseVehicle._exchange` helper, with the
freshness clauses delegated to the agent's
:class:`~repro.protocol.validate.CommandValidator`:

* :class:`VtimVehicle` — Algorithm 2.  Rejects any command whose
  measured round trip exceeded the WC-RTD bound (that bound *is* the
  policy's safety argument).
* :class:`CrossroadsVehicle` — Algorithm 8.  Holds speed until the
  commanded execution time ``TE`` on the synchronised clock, rejecting
  commands whose ``TE`` already passed or that the safe-stop latch
  overtook.
* :class:`AimVehicle` — Algorithm 6 (query-based).  Proposes crossings,
  slows one step per rejection, launches from a stop at the line, and
  returns grants that arrived after their own ``ToA``.

These classes are not referenced by name anywhere in the runner stack:
:mod:`repro.core.policy` registers them with :mod:`repro.core.registry`
and everything downstream resolves policies through that.
"""

from __future__ import annotations

from repro.kinematics.arrival import distance_at_te, plan_arrival
from repro.kinematics.profiles import ProfileBuilder
from repro.network.messages import (
    AimAccept,
    AimReject,
    AimRequest,
    CancelReservation,
    CrossingRequest,
    CrossroadsCommand,
    VelocityCommand,
)
from repro.vehicle.agent import BaseVehicle

__all__ = ["AimVehicle", "CrossroadsVehicle", "VtimVehicle"]


class VtimVehicle(BaseVehicle):
    """Vehicle side of the plain VT-IM (Algorithm 2).

    Executes the commanded velocity *the instant it is received* — the
    behaviour whose position nondeterminism forces the RTD buffer.
    """

    def _request_phase(self):
        cfg = self.config
        while not self.done and self.plan is None:
            if self._blocked_by_leader():
                yield self.env.timeout(cfg.retry_timeout)
                continue
            request = CrossingRequest(
                sender=self.radio.address,
                receiver=self.im_address,
                tt=self.local_time(),
                dt=self.measured_distance_to_line(),
                vc=self.plant.measured_velocity(),
                vehicle_info=self.info,
            )
            response, rtd = yield from self._exchange(request, VelocityCommand)
            if response is None:
                continue  # retransmit clause
            # VT-IM's whole safety argument is the WC-RTD bound: a
            # command that took longer than ``max_rtd`` to arrive is
            # anchored on state older than the IM's buffer covers.
            # Executing it would reintroduce exactly the position
            # nondeterminism the buffer was sized against — reject and
            # re-request from fresh state.
            if not self.validator.admit_rtd(rtd):
                self.record.stale_rejected += 1
                continue
            self.validator.note_executed(cfg.max_rtd - rtd)
            self._commit_cruise_plan(min(response.vt, self.info.spec.v_max))


class CrossroadsVehicle(BaseVehicle):
    """Vehicle side of Crossroads (Algorithm 8).

    Holds the reported velocity until the commanded execution time
    ``TE`` (on the *synchronised local clock*), then runs the planned
    trajectory to arrive at ``ToA`` with velocity ``VT``.
    """

    def _request_phase(self):
        cfg = self.config
        spec = self.info.spec
        while not self.done and self.plan is None:
            if self._blocked_by_leader():
                yield self.env.timeout(cfg.retry_timeout)
                continue
            tt = self.local_time()
            dt_measured = self.measured_distance_to_line()
            vc = min(self.plant.measured_velocity(), spec.v_max)
            if self._hold and vc > 0.0:
                # Braking under the safe-stop latch: the vehicle cannot
                # promise to hold VC until TE, so it asks once it stands.
                yield self.env.timeout(cfg.dt)
                continue
            request = CrossingRequest(
                sender=self.radio.address,
                receiver=self.im_address,
                tt=tt,
                dt=dt_measured,
                vc=vc,
                vehicle_info=self.info,
            )
            response, rtd = yield from self._exchange(request, CrossroadsCommand)
            if response is None:
                continue
            self.validator.admit_rtd(rtd)
            # Stale-command rejection: a command whose execution time
            # has already passed on the synchronised clock (delay spike
            # past the bound, or an injected duplicate of an old grant)
            # cannot start the planned trajectory from the state the IM
            # assumed.  Refuse it and fall back to the committed
            # approach profile; the loop re-requests from fresh state.
            margin = response.te - self.local_time()
            if not self.validator.admit_deadline(margin):
                continue
            # Wait until the local clock reads TE; the vehicle keeps
            # holding its approach speed meanwhile (the drive loop's
            # default behaviour).
            if margin > 0:
                yield self.env.timeout(margin)
            if self._hold and vc > 0.0:
                # The latch fired while the reply (or TE) was pending, so
                # the vehicle braked instead of holding VC: the state the
                # IM planned from is gone.  Give the slot back and ask
                # again from where the vehicle really is.
                self.radio.send(
                    CancelReservation(
                        sender=self.radio.address, receiver=self.im_address
                    )
                )
                continue
            # Deterministic state at TE, as the IM computed it.
            de = distance_at_te(dt=dt_measured, vc=vc, tt=tt, te=response.te)
            start_pos = self.approach_length - de
            plan = plan_arrival(
                distance=de,
                v_init=vc,
                start_time=self.env.now,
                toa=self.env.now + max(response.toa - response.te, 0.0),
                a_max=spec.a_max,
                d_max=spec.d_max,
                v_max=spec.v_max,
                v_min=cfg.plan_v_min,
                start_position=start_pos,
                launch_below=cfg.arrive_floor,
            )
            if plan is None:
                continue  # unreachable command; re-request
            builder = ProfileBuilder(
                plan.profile.end_time, plan.profile.end_position, plan.arrival_velocity
            )
            box_plan = self._extend_through_box(builder, max(response.vt, cfg.v_crawl))
            self._set_plan(plan.profile.concat(box_plan))


class AimVehicle(BaseVehicle):
    """Vehicle side of the query-based AIM protocol (Algorithm 6).

    Proposes arrival at its current speed; on rejection slows one step
    and retries; when forced to a stop at the line, proposes a
    launch-from-stop reservation.
    """

    #: Initial launch-proposal lead over the local clock, seconds.
    LAUNCH_LEAD = 0.20
    #: Ceiling of the adaptive launch lead (see ``_request_phase``).
    LAUNCH_LEAD_MAX = 2.0

    def _request_phase(self):
        cfg = self.config
        spec = self.info.spec
        launch_lead = self.LAUNCH_LEAD
        while not self.done and self.plan is None:
            if self._blocked_by_leader():
                yield self.env.timeout(cfg.retry_timeout)
                continue
            vc = min(max(self.plant.measured_velocity(), 0.0), spec.v_max)
            dist = self.measured_distance_to_line()
            # Launch proposals are made once the safe-stop latch has
            # parked the vehicle near the line; the measured standoff is
            # sent so the IM simulates from the true stop position.
            stopped = vc < 0.05 and self._hold and dist < 0.5
            if stopped:
                # Propose the earliest launch the round trip allows (the
                # IM rejects anything inside WC-RTD); a larger margin
                # would be pure dead time at the line.  The lead is
                # *adaptive*: a delay spike during the NTP exchange can
                # skew this clock by tens of milliseconds, making every
                # fixed-lead proposal land inside the IM's WC-RTD window
                # and be rejected forever — so while launch proposals
                # keep bouncing, the lead grows (reset on acceptance).
                toa_local = self.local_time() + launch_lead
                request = AimRequest(
                    sender=self.radio.address,
                    receiver=self.im_address,
                    toa=toa_local,
                    vc=0.0,
                    vehicle_info=self.info,
                    accelerate=True,
                    standoff=float(min(max(dist, 0.0), 0.5)),
                )
            elif vc < cfg.aim_propose_min_speed:
                # Too slow for a constant-speed crossing to be worth
                # reserving; let the safe-stop clause bring the vehicle
                # to rest at the line, then propose a launch.
                yield self.env.timeout(cfg.aim_retry_interval)
                continue
            else:
                toa_local = self.local_time() + dist / vc
                request = AimRequest(
                    sender=self.radio.address,
                    receiver=self.im_address,
                    toa=toa_local,
                    vc=vc,
                    vehicle_info=self.info,
                    accelerate=False,
                )
            response, rtd = yield from self._exchange(request, AimAccept, AimReject)
            if response is None:
                continue  # lost message; retransmit
            self.validator.admit_rtd(rtd)
            if isinstance(response, AimReject):
                self.record.rejects_received += 1
                if stopped:
                    # Widen the launch lead: the rejection may be a
                    # conflict (waiting works) or a clock-skew-induced
                    # too-soon proposal (only a larger lead works).
                    launch_lead = min(launch_lead * 1.5, self.LAUNCH_LEAD_MAX)
                else:
                    # Slow down one step and re-request (Ch 5.2).
                    self.approach_speed = max(
                        self.approach_speed - cfg.aim_speed_step, cfg.v_crawl
                    )
                yield self.env.timeout(cfg.aim_retry_interval)
                continue
            # Accepted: follow through at the reserved speed/time.
            delay_to_toa = response.toa - self.local_time()
            # Stale-accept rejection: a grant arriving after its own
            # ToA (delay spike past the bound, duplicated old accept)
            # reserves tiles the vehicle can no longer occupy on time.
            # Give the slot back and renegotiate from current state.
            if not self.validator.admit_deadline(delay_to_toa):
                self.radio.send(
                    CancelReservation(
                        sender=self.radio.address, receiver=self.im_address
                    )
                )
                yield self.env.timeout(cfg.aim_retry_interval)
                continue
            if request.accelerate:
                # ``toa`` is the launch time: wait it out, then floor it.
                if delay_to_toa > 0:
                    yield self.env.timeout(delay_to_toa)
                # Execution-time revalidation: the wait ran on the
                # drifting local clock, so check the granted window is
                # still live at the moment the launch actually starts.
                # A wake-up more than one WC-RTD past ToA means the
                # window the IM simulated has lapsed — and its watchdog
                # may already have invalidated the reservation — so
                # entering the box on it would be an ungranted entry.
                # Give the slot back and renegotiate instead.
                if not self.validator.admit_deadline(
                    response.toa + cfg.max_rtd - self.local_time()
                ):
                    self.radio.send(
                        CancelReservation(
                            sender=self.radio.address, receiver=self.im_address
                        )
                    )
                    continue
                builder = ProfileBuilder(self.env.now, self.plant.position, self.speed)
                self._set_plan(self._extend_through_box(builder, spec.v_max))
            else:
                # Keep cruising at the accepted speed; the reservation
                # was made for exactly this profile.
                self._commit_cruise_plan(min(response.vc, spec.v_max))
