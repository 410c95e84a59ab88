"""The micro-simulator: one intersection's node runtime + its workload.

A :class:`World` assembles one complete experiment:

* the intersection geometry and (for VT-style policies) its conflict
  table;
* a wireless medium behind the
  :class:`~repro.network.transport.Transport` seam (the in-process
  channel with the testbed's delay distribution and optional loss);
* a single :class:`~repro.sim.engine.NodeRuntime` — the IM process of
  the chosen policy plus the per-lane spawn wiring, the ground-truth
  safety monitor and the reservation watchdog;
* a spawner that turns an arrival list into protocol-running
  :class:`~repro.vehicle.BaseVehicle` agents, each with its own
  drifting clock and noisy plant.

``world.run()`` advances the DES until every vehicle has despawned (or
a hard time limit is hit) and returns a
:class:`~repro.sim.metrics.SimResult`.
:class:`~repro.grid.world.GridWorld` composes N of the same runtimes
on one environment; this class is the single-node instantiation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aim import AimConfig
from repro.core.base import IMConfig
from repro.core.registry import resolve_policy
from repro.des import Environment
from repro.faults import FaultConfig, FaultInjector
from repro.geometry.collision import OrientedRect
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.network.delay import DelayModel, testbed_delay_model
from repro.network.transport import default_transport
from repro.obs.events import EventLog
from repro.obs.spans import build_spans, span_stats
from repro.sensors.plant import PlantConfig
from repro.sim.engine import NodeRuntime
from repro.sim.metrics import SimResult
from repro.traffic.generator import Arrival
from repro.vehicle.agent import AgentConfig, BaseVehicle

__all__ = ["World", "WorldConfig", "run_scenario"]


@dataclass
class WorldConfig:
    """Experiment-level knobs (testbed defaults throughout)."""

    im: IMConfig = field(default_factory=IMConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    aim: AimConfig = field(default_factory=AimConfig)
    #: One-way network delay model (None -> testbed gamma, 7.5 ms WC).
    delay_model: Optional[DelayModel] = None
    message_loss: float = 0.0
    #: Fault-injection configuration (None -> no injector attached;
    #: a *null* config attaches an injector that never fires — both
    #: are bit-identical to the fault-free path because the injector
    #: draws from its own RNG stream).  Frozen/picklable, so it rides
    #: into the parallel runner's worker processes unchanged.
    faults: Optional[FaultConfig] = None
    #: Initial clock offsets are uniform in +-this, seconds.
    clock_offset_bound: float = 0.5
    #: Clock drifts are uniform in +-this (fractional).
    clock_drift_bound: float = 20e-6
    #: Safety-monitor sampling period, seconds.
    safety_dt: float = 0.05
    #: Hard wall on simulated seconds (runaway guard).
    max_sim_time: float = 3600.0
    #: Disable plant/sensor noise (for deterministic unit tests).
    ideal_vehicles: bool = False
    #: Physical actuation margin over the *advertised* limits: plans
    #: use ``spec.a_max``; the plant can do slightly more, so the
    #: tracking loop can recover lag even on full-throttle launches.
    plant_headroom: float = 1.15

    def __post_init__(self):
        # Fail fast with a clear message: bad experiment knobs used to
        # surface only as deep kinematics/DES errors mid-run.
        if self.safety_dt <= 0:
            raise ValueError("safety_dt must be positive")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if not 0.0 <= self.message_loss < 1.0:
            raise ValueError("message_loss must be in [0, 1)")
        if self.clock_offset_bound < 0:
            raise ValueError("clock_offset_bound must be non-negative")
        if self.clock_drift_bound < 0:
            raise ValueError("clock_drift_bound must be non-negative")
        if self.plant_headroom < 1.0:
            raise ValueError("plant_headroom must be >= 1.0")


class World:
    """One wired-up simulation run.

    Parameters
    ----------
    policy:
        ``"vt-im"``, ``"crossroads"`` or ``"aim"``.
    arrivals:
        The workload (time-sorted :class:`~repro.traffic.Arrival` s).
    geometry:
        Intersection layout (testbed default when omitted).
    conflicts:
        Reusable conflict table (recomputed when omitted; pass one in
        when sweeping to amortise the geometry analysis).
    config:
        World knobs.
    seed:
        Master seed: spawns per-vehicle RNGs and clock parameters.
    obs:
        Optional :class:`~repro.obs.EventLog` threaded through every
        runtime layer (kernel, channel, protocol machines, vehicles,
        IM, scheduler).  Tracing never touches an RNG and never
        schedules a DES event, so a traced run's ``summary()`` is
        bit-identical to an untraced one.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` fed by the node
        runtime's sampler: kernel events and transport
        sent/delivered/dropped/in-flight read from their single
        sources, plus queue depth, IM backlog, degraded population,
        occupancy gauges and the online RTD histogram.  The same
        bit-identity contract as ``obs`` applies; the snapshot rides
        on :attr:`SimResult.metrics`.
    transport_factory:
        Optional callable with the
        :func:`~repro.network.transport.default_transport` signature,
        returning the :class:`~repro.network.transport.Transport` the
        world runs on.  The injection seam for alternative media —
        the serve mode's socket fabric, the codec round-trip harness —
        without the world ever naming a concrete implementation.
    """

    def __init__(
        self,
        policy: str,
        arrivals: Sequence[Arrival],
        geometry: Optional[IntersectionGeometry] = None,
        conflicts: Optional[ConflictTable] = None,
        config: Optional[WorldConfig] = None,
        seed: Optional[int] = None,
        obs: Optional[EventLog] = None,
        metrics=None,
        transport_factory=None,
    ):
        self._spec = resolve_policy(policy)
        self.policy = self._spec.name
        self.arrivals = sorted(arrivals, key=lambda a: a.time)
        self.config = config if config is not None else WorldConfig()
        self.geometry = geometry if geometry is not None else IntersectionGeometry()
        self.rng = np.random.default_rng(seed)
        self.obs = obs
        self.metrics = metrics

        self.env = Environment()
        if obs is not None:
            self.env.obs = obs
        delay = (
            self.config.delay_model
            if self.config.delay_model is not None
            else testbed_delay_model()
        )
        # One master-RNG draw for the channel, *whether or not* faults
        # are configured: the injector's stream is derived from the
        # same draw (child key 1), so attaching a null injector leaves
        # every other random sequence in the simulation untouched —
        # the differential regression test pins this.
        channel_seed = int(self.rng.integers(2 ** 63))
        self.faults: Optional[FaultInjector] = None
        if self.config.faults is not None:
            self.faults = FaultInjector(
                self.config.faults,
                rng=np.random.default_rng([channel_seed, 1]),
                im_address=self.config.im.address,
            )
        make_transport = (
            transport_factory if transport_factory is not None
            else default_transport
        )
        self.channel = make_transport(
            self.env,
            delay_model=delay,
            loss_probability=self.config.message_loss,
            rng=np.random.default_rng(channel_seed),
            faults=self.faults,
            obs=obs,
        )
        if self._spec.needs_conflicts and conflicts is None:
            conflicts = ConflictTable(self.geometry)
        self.conflicts = conflicts
        self._node = NodeRuntime(
            self.env,
            self._spec,
            self.channel,
            self.geometry,
            conflicts,
            self.config,
            im_address=self.config.im.address,
            name="world",
            obs=obs,
            metrics=metrics,
        )
        self.im = self._node.im
        #: Wall seconds spent in :meth:`run`, None before it ran
        #: (counters are harvested at :meth:`result` time).
        self.sim_run_s: Optional[float] = None
        self.env.process(self._spawner())
        self.env.process(self._node.safety_monitor())
        self.env.process(self._node.im_watchdog())

    # -- node-runtime views --------------------------------------------------
    @property
    def vehicles(self) -> List[BaseVehicle]:
        return self._node.vehicles

    @property
    def collisions(self) -> int:
        return self._node.collisions

    @property
    def buffer_violations(self) -> int:
        return self._node.buffer_violations

    @property
    def min_separation(self) -> float:
        return self._node.min_separation

    @property
    def collision_episodes(self) -> List[Tuple[float, Tuple[int, int]]]:
        """``(onset_time, (id_a, id_b))`` per collision episode."""
        return self._node.collision_episodes

    @property
    def safety_checks(self) -> List[Callable[[float], None]]:
        """Extra per-tick safety checks run by the node's monitor."""
        return self._node.safety_checks

    @property
    def on_spawn(self) -> Optional[Callable[[BaseVehicle], None]]:
        """Hook fired with each vehicle right after it spawns (the
        scenario layer attaches behaviour processes here)."""
        return self._node.on_spawn

    @on_spawn.setter
    def on_spawn(self, hook: Optional[Callable[[BaseVehicle], None]]) -> None:
        self._node.on_spawn = hook

    # -- spawning -----------------------------------------------------------
    def _spawner(self):
        for index, arrival in enumerate(self.arrivals):
            wait = arrival.time - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            self._spawn(index, arrival)

    def _spawn(self, index: int, arrival: Arrival) -> BaseVehicle:
        node = self._node
        info = node.vehicle_info(index, arrival.spec, arrival.movement)
        radio = self.channel.attach(f"V{index}")
        clock = node.make_clock(self.rng)
        return node.add_vehicle(info, radio, clock, arrival.speed, self.rng)

    # -- ground-truth poses -----------------------------------------------------
    def pose_of(self, vehicle: BaseVehicle) -> OrientedRect:
        """World-frame footprint of a vehicle's *body* (no buffer)."""
        return self._node.pose_of(vehicle)

    # -- execution ---------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return bool(self.vehicles) and all(v.done for v in self.vehicles) and len(
            self.vehicles
        ) == len(self.arrivals)

    def run(self) -> SimResult:
        """Run to completion (all vehicles despawned) and collect results."""
        step = 1.0
        started = time.perf_counter()
        while not self.all_done and self.env.now < self.config.max_sim_time:
            self.env.run(until=self.env.now + step)
        self.sim_run_s = (self.sim_run_s or 0.0) + time.perf_counter() - started
        return self.result()

    def result(self) -> SimResult:
        """Snapshot the metrics of the current state."""
        if self.metrics is not None:
            # Final gauge/histogram sample so round trips completed
            # after the last safety tick are still counted.
            self._node.sample_metrics(self.env.now)
        return self._node.result(
            stats=self.channel.stats,
            per_endpoint=False,
            fault_injections=self.faults.snapshot() if self.faults else {},
            perf=self._node.perf_snapshot(
                counts={"des_events": self.env.events_processed},
                sim_run_s=self.sim_run_s,
            ),
            obs_stats=(
                span_stats(build_spans(self.obs))
                if self.obs is not None
                else None
            ),
            metrics_snapshot=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
        )


def run_scenario(
    policy: str,
    arrivals: Sequence[Arrival],
    config: Optional[WorldConfig] = None,
    conflicts: Optional[ConflictTable] = None,
    geometry: Optional[IntersectionGeometry] = None,
    seed: Optional[int] = None,
    obs: Optional[EventLog] = None,
    metrics=None,
    transport_factory=None,
) -> SimResult:
    """One-call wrapper: build a :class:`World`, run it, return results."""
    world = World(
        policy,
        arrivals,
        geometry=geometry,
        conflicts=conflicts,
        config=config,
        seed=seed,
        obs=obs,
        metrics=metrics,
        transport_factory=transport_factory,
    )
    return world.run()
