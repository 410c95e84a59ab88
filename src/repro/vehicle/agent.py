"""The base vehicle agent: drive loop + protocol-machine composition.

Each agent couples three things on the DES:

* a **drive loop** stepping the noisy longitudinal plant every control
  period — tracking the committed plan if one exists, otherwise holding
  the approach speed, always subject to the *safe-stop clause* (brake
  when the stop line is closer than the braking distance and no plan
  has been received) and a *car-following clamp* against the vehicle
  ahead in the lane;
* a **protocol loop** — the composition of the :mod:`repro.protocol`
  state machines: a :class:`~repro.protocol.sync.TimeSyncSession` on
  crossing the transmission line, then the policy-specific
  request/response phase (see :mod:`repro.vehicle.policies`) built on
  the shared :class:`~repro.protocol.loop.RequestLoop`,
  :class:`~repro.protocol.validate.CommandValidator` and
  :class:`~repro.protocol.degrade.DegradationMonitor`;
* **bookkeeping** — a :class:`~repro.vehicle.record.VehicleRecord` the
  metrics layer reads.

The route coordinate ``s`` is 1-D: the *front bumper* starts at 0 on
the transmission line; the stop line is at ``approach_length``; the box
exit is ``approach_length + path.length``; the vehicle despawns a short
outrun later.

:class:`BaseVehicle` holds no policy-specific protocol logic; the three
policy agents live in :mod:`repro.vehicle.policies` and are resolved by
name through :mod:`repro.core.registry` via :func:`make_vehicle`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.des import Environment
from repro.kinematics.profiles import MotionProfile, ProfileBuilder, brake_distance
from repro.network.channel import Radio
from repro.network.messages import CancelReservation, ExitNotification, Message
from repro.obs.events import NULL_LOG
from repro.protocol import (
    CommandValidator,
    DegradationMonitor,
    RequestLoop,
    TimeSyncSession,
)
from repro.sensors.plant import LongitudinalPlant, PlantConfig
from repro.timesync.clock import Clock
from repro.timesync.ntp import NtpClient
from repro.vehicle.config import AgentConfig
from repro.vehicle.record import VehicleRecord, VehicleState
from repro.vehicle.spec import VehicleInfo

__all__ = ["AgentConfig", "BaseVehicle", "VehicleRecord", "VehicleState",
           "make_vehicle"]


class BaseVehicle:
    """Common agent machinery; subclasses add the request protocol.

    Takes the DES ``env``, the vehicle's ``info``
    (:class:`~repro.vehicle.spec.VehicleInfo`), an attached ``radio``
    (address ``V<id>``), the drifting local ``clock`` (NTP fixes it),
    the movement's ``path_length`` through the box, the
    transmission-line-to-stop-line ``approach_length``, the
    ``spawn_speed``, the plant's ``plant_config``, the ``im_address``,
    a ``predecessor`` callable (vehicle ahead in lane, for the
    car-following clamp), the :class:`AgentConfig` tunables and the
    plant ``rng``.
    """

    def __init__(
        self,
        env: Environment,
        info: VehicleInfo,
        radio: Radio,
        clock: Clock,
        path_length: float,
        approach_length: float = 3.0,
        spawn_speed: float = 3.0,
        plant_config: Optional[PlantConfig] = None,
        im_address: str = "IM",
        predecessor: Optional[Callable[[], Optional["BaseVehicle"]]] = None,
        config: Optional[AgentConfig] = None,
        rng: Optional[np.random.Generator] = None,
        plant_headroom: float = 1.0,
        obs=None,
    ):
        if spawn_speed < 0 or spawn_speed > info.spec.v_max + 1e-9:
            raise ValueError("spawn_speed must be in [0, v_max]")
        self.env = env
        self.info = info
        self.radio = radio
        #: Observability sink (zero-cost null log unless a traced
        #: :class:`~repro.sim.world.World` supplies its event bus).
        self.obs = obs if obs is not None else NULL_LOG
        #: Correlation id of the last successfully answered exchange —
        #: ties ``vehicle.execute`` back to the granting span.
        self._last_reply_corr = 0
        self.clock = clock
        self.ntp = NtpClient(clock)
        self.config = config if config is not None else AgentConfig()
        self.im_address = im_address
        self.predecessor = predecessor if predecessor is not None else (lambda: None)
        self.approach_length = approach_length
        self.path_length = path_length
        self.route_length = approach_length + path_length + self.config.outrun
        spec = info.spec
        if plant_headroom < 1.0:
            raise ValueError("plant_headroom must be >= 1.0")
        base_plant = plant_config if plant_config is not None else PlantConfig()
        # The physical car keeps a little authority above the limits it
        # *advertises* in VehicleInfo, so the tracking loop can recover
        # lag even when the plan uses the advertised maxima throughout.
        self.plant = LongitudinalPlant(
            PlantConfig(
                a_max=spec.a_max * plant_headroom,
                d_max=spec.d_max * plant_headroom,
                v_max=spec.v_max * min(plant_headroom, 1.03),
                tau=base_plant.tau,
                accel_noise_std=base_plant.accel_noise_std,
                encoder=base_plant.encoder,
            ),
            position=0.0,
            velocity=spawn_speed,
            rng=rng,
        )
        self.state = VehicleState.SYNC
        #: True once the vehicle has despawned (set with
        #: ``VehicleState.DONE``; a plain attribute because the tick,
        #: the lane scans and the safety monitor read it many times a
        #: control period).
        self.done = False
        self.approach_speed = spawn_speed
        self.plan: Optional[MotionProfile] = None
        #: Safe-stop latch: once the stop clause fires, stay stopped
        #: until a plan is committed (prevents creeping over the line).
        self._hold = False
        #: Protocol-side randomness (retransmit jitter): seeded from the
        #: vehicle rng for reproducibility, but a separate stream so
        #: protocol draws never perturb the plant's noise mid-run.
        self._proto_rng = np.random.default_rng(
            rng.integers(2**63) if rng is not None else None
        )
        cfg = self.config
        #: Silence / backoff / degraded-mode state machine.
        self.monitor = DegradationMonitor(
            cfg.retry_timeout,
            backoff_jitter=cfg.backoff_jitter,
            silence_limit=cfg.silence_limit,
            rng=self._proto_rng,
        )
        #: Request/response matching + jittered retransmission.
        self.proto = RequestLoop(env, radio, self.monitor, obs=self.obs)
        self.record = VehicleRecord(
            vehicle_id=info.vehicle_id,
            movement_key=info.movement.key,
            spawn_time=env.now,
            spawn_speed=spawn_speed,
            ideal_transit=self._free_flow_transit(spawn_speed),
        )
        #: Staleness clauses + deadline-margin accounting.
        self.validator = CommandValidator(cfg.max_rtd, self.record)
        #: NTP exchange with trust bound and attempt budget.
        self.sync = TimeSyncSession(
            self.proto,
            self.ntp,
            server=im_address,
            local_time=self.local_time,
            rtt_limit=cfg.sync_rtt_limit,
            attempt_budget=cfg.sync_attempts,
        )
        if self.obs.enabled:
            self.obs.emit(
                "vehicle.spawn", env.now, radio.address,
                vehicle_id=info.vehicle_id, movement=info.movement.key,
            )
        self._drive_proc = env.process(self._drive_loop())
        self._protocol_proc = env.process(self._protocol_loop())

    # -- protocol-machine views ------------------------------------------------
    @property
    def _retry_timeout(self) -> float:
        """Current (un-jittered) retransmit timeout, owned by the monitor."""
        return self.monitor.retry_timeout

    # -- geometry helpers -----------------------------------------------------
    @property
    def front(self) -> float:
        """True front-bumper route coordinate."""
        return self.plant.position

    @property
    def rear(self) -> float:
        """True rear-bumper route coordinate."""
        return self.plant.position - self.info.spec.length

    @property
    def speed(self) -> float:
        """True speed."""
        return self.plant.velocity

    def measured_distance_to_line(self) -> float:
        """Odometry estimate of the distance to the stop line."""
        return max(self.approach_length - self.plant.measured_position(), 0.0)

    def local_time(self) -> float:
        """Current local clock reading."""
        return self.clock.read(self.env.now)

    def _free_flow_transit(self, v0: float) -> float:
        """Unimpeded spawn-to-box-exit time at full throttle."""
        from repro.kinematics.arrival import earliest_arrival_time

        spec = self.info.spec
        total = self.approach_length + self.path_length + spec.length
        return earliest_arrival_time(total, v0, spec.v_max, spec.a_max)

    # -- drive loop ---------------------------------------------------------
    def _commanded_velocity(self) -> float:
        """Velocity command for this control period."""
        cfg = self.config
        now = self.env.now
        plan = self.plan
        if plan is not None and now >= plan.start_time:
            # Track the plan in the *odometry* frame — the plan was
            # anchored on measured state and the real car has no access
            # to ground truth.  Feedforward leads the plant's response
            # lag; the P-term absorbs start-of-plan and actuation error.
            v_ff = plan.velocity_at(now + cfg.velocity_lead)
            err = plan.position_at(now) - self.plant.measured_position()
            v_cmd = v_ff + cfg.position_gain * err
            record = self.record
            record.max_tracking_error = max(record.max_tracking_error, abs(err))
        elif self._hold or self.monitor.degraded:
            # Safe-stop hold: either the stop clause latched at the
            # line, or prolonged IM silence put the agent in degraded
            # mode — in both cases the only safe command is zero.
            v_cmd = 0.0
        else:
            v_cmd = self.approach_speed
            # Safe-stop clause: no committed plan and the line is near.
            if self._stop_clause_fires(
                brake_distance(self.plant.velocity, self.info.spec.d_max)
            ):
                self._hold = True
                v_cmd = 0.0
        # Clip at the *plant's* limit (advertised v_max plus headroom),
        # so the tracking loop may briefly exceed the plan speed to
        # recover lag.  (Scalar clamp in np.clip's order: see
        # LongitudinalPlant.step.)
        return min(max(v_cmd, 0.0), self.plant.config.v_max)

    def _stop_clause_fires(self, brake: float) -> bool:
        """Whether the safe-stop clause latches, given the current
        ``brake`` distance (0.0 at rest).

        The comparison pits odometry against the true line, so the
        latch fires early by the accrued worst-case odometry drift — at
        crawl speeds the brake distance is millimetres and a half-count
        encoder bias integrated over a long approach otherwise walks
        the true bumper over the line while the measured distance still
        reads positive.
        """
        cfg = self.config
        return self.measured_distance_to_line() <= (
            brake
            + cfg.stop_margin
            + min(self.plant.odometry_error_bound, cfg.odometry_margin_cap)
        )

    def _gap_to(self, leader: "BaseVehicle") -> float:
        """Room behind ``leader``: its rear bumper less this front
        bumper less ``gap_min``, read off the plants directly."""
        return (
            leader.plant.position - leader.info.spec.length - self.plant.position
            - self.config.gap_min
        )

    def _follow_clamp(self, v_cmd: float) -> float:
        """Never command a speed the leader's position cannot absorb."""
        leader = self.predecessor()
        if leader is None or leader.done:
            return v_cmd
        gap = self._gap_to(leader)
        if gap <= 0:
            return 0.0
        # Gipps-style bound: we can always stop behind the leader even
        # if it brakes as hard as we can, given its current speed.
        v_safe = math.sqrt(
            leader.plant.velocity ** 2 + 2.0 * self.info.spec.d_max * gap
        )
        return min(v_cmd, v_safe)

    def _held_at_rest(self) -> bool:
        """Whether this control period's command is provably 0.0 for a
        vehicle standing still: no plan, no ``_commanded_velocity``
        shadowed on the instance, and either the safe-stop latch or
        degraded mode holds it, or the approach branch would not latch
        and the lane leader leaves no gap.  Reads state only.  A
        subclass that overrides ``_commanded_velocity`` or
        ``_follow_clamp`` overrides this too."""
        if self.plan is not None or "_commanded_velocity" in self.__dict__:
            return False
        if self._hold or self.monitor.degraded:
            return True
        leader = self.predecessor()
        return (
            leader is not None
            and not leader.done
            and self._gap_to(leader) <= 0
            and not self._stop_clause_fires(0.0)
        )

    def _drive_loop(self):
        """One resumption per control period, each stepping the plant once.

        A general tick computes the command (plan tracking, safe-stop
        clause, car-following clamp), steps the plant, then checks the
        replan and milestone clauses.  After it, each tick that starts
        at rest with a command :meth:`_held_at_rest` proves zero is a
        *rest tick*: it steps the plant with 0.0 and keeps the
        degraded-time bookkeeping only.  A zero command at rest leaves
        the plant where it stood, so the replan clause (no plan) and
        the milestones (same position as at their last check) would
        find nothing new.  ``_commanded_velocity`` and
        ``plant.measured_position`` stay late-bound (looked up on the
        instance each tick): scenario behaviours shadow them there for
        a window (``stall_in_box``, ``sensor_dropout``).
        """
        dt = self.config.dt
        env = self.env
        plant = self.plant
        record = self.record
        monitor = self.monitor
        while not self.done:
            v_cmd = self._follow_clamp(self._commanded_velocity())
            was_moving = plant.velocity > 0.02
            plant.step(v_cmd, dt)
            if was_moving and plant.velocity <= 0.02:
                record.came_to_stop = True
            if monitor.degraded:
                record.degraded_time += dt
            self._maybe_replan()
            self._check_milestones()
            yield env.timeout(dt)
            while (
                not self.done and plant.velocity == 0.0 and self._held_at_rest()
            ):
                plant.step(0.0, dt)
                if monitor.degraded:
                    record.degraded_time += dt
                yield env.timeout(dt)

    def _maybe_replan(self) -> None:
        """Abandon a plan the vehicle can no longer honour.

        A vehicle blocked by its leader falls behind its committed
        trajectory; entering the box late would consume another
        vehicle's slot, so while still on the approach it drops the
        plan and renegotiates from its actual state.
        """
        plan = self.plan
        now = self.env.now
        if plan is None or now < plan.start_time:
            return
        plant = self.plant
        front = plant.position
        if front >= self.approach_length:
            return  # physically inside the box: committed
        dist = self.approach_length - front
        # Only abandon the plan if the vehicle can still stop before
        # the line — dropping it any later would send an unscheduled
        # vehicle into the box.
        can_stop = (
            brake_distance(plant.velocity, self.info.spec.d_max)
            + self.config.stop_margin
            <= dist
        )
        if not can_stop:
            return
        lag = plan.position_at(now) - plant.measured_position()
        # Far from the line a moderate lag is recoverable; close to it
        # the tolerance is the safety buffer itself — entering the box
        # further off-plan than the buffer would consume another
        # vehicle's slot.
        threshold = self.info.buffer if dist < 0.6 else self.config.replan_lag
        if lag > threshold:
            self.plan = None
            self._hold = False
            self.state = VehicleState.REQUEST
            self.record.replans += 1
            # Free the now-unusable slot right away: a ghost reservation
            # would block cross traffic until it times out.
            self.radio.send(
                CancelReservation(sender=self.radio.address, receiver=self.im_address)
            )

    def _check_milestones(self) -> None:
        now = self.env.now
        record = self.record
        front = self.plant.position
        if record.enter_time is None and front >= self.approach_length:
            record.enter_time = now
            if self.obs.enabled:
                self.obs.emit("vehicle.enter", now, self.radio.address)
        if (
            record.exit_time is None
            and front - self.info.spec.length >= self.approach_length + self.path_length
        ):
            record.exit_time = now
            if self.obs.enabled:
                self.obs.emit("vehicle.exit", now, self.radio.address)
            self.radio.send(
                ExitNotification(
                    sender=self.radio.address,
                    receiver=self.im_address,
                    exit_time=self.local_time(),
                )
            )
        if front >= self.route_length:
            record.despawn_time = now
            self.state = VehicleState.DONE
            self.done = True
            if self.obs.enabled:
                self.obs.emit("vehicle.despawn", now, self.radio.address)

    # -- protocol loop ----------------------------------------------------------
    def _protocol_loop(self):
        yield from self._sync_phase()
        while not self.done:
            if self.plan is None:
                self.state = VehicleState.REQUEST
                yield from self._request_phase()
            else:
                # Following a plan; poll for a replan-triggered drop.
                yield self.env.timeout(5 * self.config.dt)

    def _sync_phase(self):
        """Run the :class:`TimeSyncSession` with this agent's hooks.

        Timeout and contact share the request phases' backoff and
        degradation machinery — a vehicle spawning into a blackout
        window must not hammer the channel, and prolonged silence still
        ends in a safe-stop hold; spiked-sample re-exchanges count as
        retries.
        """
        yield from self.sync.run(
            should_abort=lambda: self.done,
            on_timeout=self._backoff,
            on_contact=self._note_contact,
            on_resample=self._count_retry,
        )

    def _blocked_by_leader(self) -> bool:
        """True while stuck in a queue behind a stopped leader.

        Requesting a slot the vehicle physically cannot use only stuffs
        the IM's book with ghost reservations (and its queue with
        work), so the protocol loops defer until the leader moves or
        commits into the box.
        """
        leader = self.predecessor()
        if leader is None or leader.done:
            return False
        if leader.front >= self.approach_length:
            return False  # leader is entering/inside the box
        gap = leader.rear - self.front
        return gap < 1.2 and leader.speed < 0.15

    def _backoff(self) -> None:
        """One unanswered exchange: count it and grow the monitor."""
        self.record.retries += 1
        if self.monitor.on_timeout(committed=self.plan is not None, now=self.env.now):
            self.record.degraded_entries += 1
            if self.obs.enabled:
                self.obs.emit(
                    "vehicle.degraded", self.env.now, self.radio.address,
                    silence=self.monitor.timeouts_in_a_row,
                )

    def _note_contact(self) -> None:
        """The IM answered: reset backoff and leave degraded mode."""
        self.monitor.on_contact(now=self.env.now)

    def _count_retry(self) -> None:
        self.record.retries += 1

    def _exchange(self, request: Message, *types):
        """One counted, correlated request/response round.

        Sends ``request``, awaits a reply of one of ``types`` matching
        the request's seq, and runs the shared timeout/contact
        bookkeeping.  Returns ``(response, rtd)``; ``response`` is None
        after an unanswered (backed-off) exchange.
        """
        sent_at = self.env.now
        self.record.requests_sent += 1
        response = yield from self.proto.exchange(
            request, *types, reply_to=request.seq
        )
        if response is None:
            self._backoff()
            return None, 0.0
        self._note_contact()
        self._last_reply_corr = getattr(response, "corr", 0) or request.seq
        return response, self.env.now - sent_at

    def _request_phase(self):
        """Policy-specific request/response exchange (subclass hook)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator

    # -- plan helpers ----------------------------------------------------------
    def _extend_through_box(self, builder: ProfileBuilder, v_cross: float) -> MotionProfile:
        """Continue a stop-line plan through the box and outrun."""
        if v_cross <= 0:
            v_cross = self.config.v_crawl
        builder.accelerate_to(v_cross, self.info.spec.a_max)
        remaining = self.route_length + self.info.spec.length - builder.build().end_position
        if remaining > 0:
            builder.hold_for(remaining / v_cross)
        return builder.build()

    def _set_plan(self, plan: MotionProfile) -> None:
        """Commit a plan and release the safe-stop latch."""
        self.plan = plan
        self._hold = False
        self.state = VehicleState.FOLLOW
        if self.obs.enabled:
            self.obs.emit(
                "vehicle.execute", self.env.now, self.radio.address,
                corr=self._last_reply_corr, te=plan.start_time,
            )

    def _commit_cruise_plan(self, v_target: float) -> None:
        """VT-IM style: accelerate to ``v_target`` now and maintain."""
        spec = self.info.spec
        v_now = max(self.speed, 0.0)
        rate = spec.a_max if v_target >= v_now else spec.d_max
        builder = ProfileBuilder(self.env.now, self.plant.position, v_now)
        builder.accelerate_to(v_target, rate)
        self._set_plan(self._extend_through_box(builder, v_target))


def make_vehicle(policy, *args, **kwargs) -> BaseVehicle:
    """Instantiate the agent class matching an IM policy.

    ``policy`` may be a registered policy name/alias or a
    :class:`~repro.core.registry.PolicySpec`; resolution goes through
    :mod:`repro.core.registry`, so plugin policies work everywhere the
    built-ins do.  (Imported lazily: the registry references vehicle
    classes, so a module-level import here would be circular.)
    """
    from repro.core.registry import resolve_policy

    return resolve_policy(policy).vehicle_cls(*args, **kwargs)
