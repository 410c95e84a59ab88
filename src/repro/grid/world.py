"""The corridor simulator: a routed graph of node runtimes on one DES.

:class:`GridWorld` lifts :class:`~repro.sim.world.World` from one
intersection to a :class:`~repro.grid.spec.GridSpec` network:

* **one** DES environment and **one** shared wireless medium (behind
  the :class:`~repro.network.transport.Transport` seam) carry every
  node's traffic — the per-IM share is read back from
  ``NetworkStats.by_endpoint``;
* each node is a full :class:`~repro.sim.engine.NodeRuntime` — its own
  IM (any registered policy, mixed policies allowed) at the address
  ``"{base}.{node}"`` (the bare base address for a 1-node grid, so
  addressing matches the single world exactly), its own ground-truth
  safety monitor (node-local frame, episode semantics identical to
  ``World``'s) and its own 1 Hz reservation watchdog — with the
  ``on_spawn``/``safety_checks`` scenario seams available per node;
* a **hand-off** process follows every multi-hop vehicle: when its
  hop-``k`` agent despawns past the box, the vehicle cruises the
  connecting link at ``min(link.speed_limit, v_max)``, waits (if
  needed) for car-following spacing on the destination lane, and is
  re-spawned as a fresh agent at the next node — reusing the *same*
  radio (stable address ``V<id>`` keeps the IM-side sequence guards
  and receiver dedup windows continuous) and the *same* drifting
  clock (offset/drift state carries across hops).

Single-node bit-identity
------------------------
A 1-node ``GridWorld`` replays :class:`~repro.sim.world.World`'s exact
construction order: master-RNG draws (channel seed, then per-spawn
offset/drift/clock-rng/plant-rng), DES process creation order (IM
machinery, spawner, safety monitor, watchdog) and lane bookkeeping —
all of it now literally the same engine code.  Single-hop routes start
**no** hand-off watcher, so the event-id tie-break sequence is
untouched.  The golden equivalence suite pins
``grid.per_node["N0"].summary() == world.summary()`` across policies
and seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.des import Environment
from repro.core.registry import resolve_policy
from repro.faults import FaultInjector
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.grid.spec import GridSpec
from repro.grid.traffic import GridArrival
from repro.network.delay import testbed_delay_model
from repro.network.transport import default_transport
from repro.obs.events import EventLog
from repro.obs.spans import build_spans, span_stats
from repro.sim.engine import NodeRuntime, perf_dict
from repro.sim.metrics import SimResult
from repro.sim.world import WorldConfig
from repro.vehicle.agent import BaseVehicle
from repro.vehicle.record import VehicleRecord

__all__ = ["CorridorRecord", "GridResult", "GridWorld"]


# =========================================================================
# Results
# =========================================================================
@dataclass
class CorridorRecord:
    """One vehicle's end-to-end trip across the network.

    ``hops`` collects ``(node, per-hop VehicleRecord)`` pairs as the
    trip progresses; the same records also appear in the owning node's
    :class:`~repro.sim.metrics.SimResult`, so per-node and corridor
    views stay consistent by construction.
    """

    vehicle_id: int
    route_key: str
    n_hops_planned: int
    spawn_node: str
    spawn_time: float
    hops: List[Tuple[str, VehicleRecord]] = field(default_factory=list)
    #: Simulated seconds this vehicle's hand-offs waited for spacing.
    handoff_wait_s: float = 0.0

    @property
    def hops_completed(self) -> int:
        """Hops whose box was fully cleared."""
        return sum(1 for _, record in self.hops if record.finished)

    @property
    def finished(self) -> bool:
        """True once every planned hop's box was cleared."""
        return self.hops_completed == self.n_hops_planned

    @property
    def corridor_time(self) -> Optional[float]:
        """First spawn to final box exit, seconds (None unfinished)."""
        if not self.finished:
            return None
        return self.hops[-1][1].exit_time - self.spawn_time

    @property
    def total_delay(self) -> float:
        """Summed per-hop excess wait over free flow, seconds."""
        return float(
            sum(
                record.delay
                for _, record in self.hops
                if record.delay is not None
            )
        )


@dataclass
class GridResult:
    """Everything measured in one corridor run.

    ``per_node`` holds one full :class:`~repro.sim.metrics.SimResult`
    per intersection (records = the per-hop vehicle records served
    there; message/byte/duplicate counts are that IM's
    ``by_endpoint`` share of the shared medium; ``messages_by_type``
    and ``losses_by_reason`` stay *global* — a shared medium cannot
    attribute them per node).  ``corridor`` is the end-to-end view.
    """

    spec: GridSpec
    per_node: Dict[str, SimResult]
    corridor: List[CorridorRecord]
    sim_duration: float
    #: Completed link hand-offs (vehicle re-spawned at the next node).
    handoffs: int = 0
    #: Hand-offs that had to wait for car-following spacing on the
    #: destination lane (the "headway violation avoided" counter).
    handoffs_delayed: int = 0
    #: Total simulated seconds spent in those waits.
    handoff_wait_s: float = 0.0
    #: Run-level wall timers + kernel counters (not in :meth:`summary`).
    perf: Dict[str, float] = field(default_factory=dict)
    #: Exchange-span stats when traced (not in :meth:`summary`).
    obs: Dict[str, float] = field(default_factory=dict)
    #: Streaming-metrics snapshot when a registry was attached (per-node
    #: series carry ``node=<name>`` labels; not in :meth:`summary`).
    metrics: Dict = field(default_factory=dict)
    #: Per-node safety-oracle violations (only nodes with an attached
    #: :class:`~repro.scenarios.SafetyOracle`; empty tuples for clean
    #: nodes stay in, so attribution is explicit per monitored node).
    violations: Dict[str, tuple] = field(default_factory=dict)

    # -- aggregates --------------------------------------------------------
    @property
    def n_vehicles(self) -> int:
        return len(self.corridor)

    @property
    def n_completed(self) -> int:
        return sum(1 for record in self.corridor if record.finished)

    @property
    def corridor_times(self) -> np.ndarray:
        return np.array(
            [
                record.corridor_time
                for record in self.corridor
                if record.corridor_time is not None
            ],
            dtype=float,
        )

    @property
    def average_corridor_time(self) -> float:
        times = self.corridor_times
        return float(times.mean()) if len(times) else 0.0

    @property
    def average_delay(self) -> float:
        """Mean summed per-hop delay of completed trips, seconds."""
        delays = [r.total_delay for r in self.corridor if r.finished]
        return float(np.mean(delays)) if delays else 0.0

    @property
    def collisions(self) -> int:
        return sum(result.collisions for result in self.per_node.values())

    @property
    def messages_sent(self) -> int:
        """Shared-medium total (per-IM shares live in ``per_node``)."""
        results = list(self.per_node.values())
        if len(results) == 1:
            return results[0].messages_sent
        # Every message involves exactly one IM endpoint, so the medium
        # total is the sum of the per-IM shares.
        return sum(result.messages_sent for result in results)

    @property
    def safe(self) -> bool:
        return self.collisions == 0

    def summary(self) -> Dict[str, float]:
        """Flat corridor-level headline numbers (deterministic per
        seed: safe to compare across jobs=1 / jobs=N executions)."""
        completed = [r for r in self.corridor if r.finished]
        return {
            "nodes": float(len(self.per_node)),
            "vehicles": float(self.n_vehicles),
            "completed": float(self.n_completed),
            "avg_corridor_time_s": self.average_corridor_time,
            "avg_delay_s": self.average_delay,
            "avg_hops": (
                float(np.mean([r.hops_completed for r in completed]))
                if completed
                else 0.0
            ),
            "handoffs": float(self.handoffs),
            "handoffs_delayed": float(self.handoffs_delayed),
            "handoff_wait_s": self.handoff_wait_s,
            "collisions": float(self.collisions),
            "messages": float(self.messages_sent),
        }


# =========================================================================
# The grid world
# =========================================================================
class GridWorld:
    """One wired-up corridor run.

    Parameters
    ----------
    spec:
        The network description.
    arrivals:
        Routed boundary workload (time-sorted
        :class:`~repro.grid.traffic.GridArrival` s).
    geometry:
        Per-node intersection layout, shared by every node (testbed
        default when omitted; node placement is ``NodeSpec.x/y``).
    config:
        World knobs (``config.im.address`` is the base IM address;
        per-node addresses append ``.{node}`` on multi-node grids).
    seed:
        Master seed (channel, clocks, plants — same stream discipline
        as :class:`~repro.sim.world.World`).
    obs:
        Optional event log; hand-offs emit ``grid.handoff`` records
        and per-node IM addresses give spans per-node attribution.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` shared by every
        node runtime — per-node series are distinguished by their
        ``node`` label; each node's sampler also advances the shared
        kernel, transport and ``grid.handoffs`` counters to their
        sources.  Same bit-identity contract as ``obs``.
    """

    def __init__(
        self,
        spec: GridSpec,
        arrivals: Sequence[GridArrival],
        geometry: Optional[IntersectionGeometry] = None,
        conflicts: Optional[ConflictTable] = None,
        config: Optional[WorldConfig] = None,
        seed: Optional[int] = None,
        obs: Optional[EventLog] = None,
        metrics=None,
    ):
        self.spec = spec
        self.arrivals = sorted(arrivals, key=lambda a: a.time)
        self.config = config if config is not None else WorldConfig()
        self.geometry = geometry if geometry is not None else IntersectionGeometry()
        self.rng = np.random.default_rng(seed)
        self.obs = obs
        self.metrics = metrics
        cfg = self.config

        # A link must out-last the despawn outrun, or the hand-off
        # would have to re-spawn the vehicle *behind* its own exit.
        for link in spec.links:
            if link.length <= cfg.agent.outrun:
                raise ValueError(
                    f"link {link.key}: length {link.length} must exceed the "
                    f"agent outrun {cfg.agent.outrun}"
                )

        policies = {
            node.name: resolve_policy(node.policy) for node in spec.nodes
        }
        single = len(spec) == 1

        self.env = Environment()
        if obs is not None:
            self.env.obs = obs
        delay = (
            cfg.delay_model if cfg.delay_model is not None else testbed_delay_model()
        )
        # Same master-draw discipline as World: one channel-seed draw,
        # fault stream forked from it (child key 1).
        channel_seed = int(self.rng.integers(2 ** 63))
        self.faults: Optional[FaultInjector] = None
        if cfg.faults is not None:
            self.faults = FaultInjector(
                cfg.faults,
                rng=np.random.default_rng([channel_seed, 1]),
                im_address=cfg.im.address,
            )
        self.channel = default_transport(
            self.env,
            delay_model=delay,
            loss_probability=cfg.message_loss,
            rng=np.random.default_rng(channel_seed),
            faults=self.faults,
            obs=obs,
        )
        if conflicts is None and any(
            p.needs_conflicts for p in policies.values()
        ):
            conflicts = ConflictTable(self.geometry)
        self.conflicts = conflicts

        #: One :class:`~repro.sim.engine.NodeRuntime` per intersection,
        #: in ``spec.nodes`` order (IM construction order matters for
        #: bit-identity).  The scenario layer reaches per-node seams —
        #: ``safety_checks``, ``oracle`` — through this mapping.
        self.nodes: Dict[str, NodeRuntime] = {}
        for node in spec.nodes:
            self.nodes[node.name] = NodeRuntime(
                self.env,
                policies[node.name],
                self.channel,
                self.geometry,
                conflicts,
                cfg,
                im_address=(
                    cfg.im.address if single else f"{cfg.im.address}.{node.name}"
                ),
                name=node.name,
                obs=obs,
                metrics=metrics,
            )
            self.nodes[node.name].totals["grid.handoffs"] = (
                lambda: self.handoffs
            )
        #: Per-node IMs (kept as a flat view; tests and analysis poke
        #: reservation state through it).
        self.ims = {name: runtime.im for name, runtime in self.nodes.items()}

        #: Every agent ever spawned (one per vehicle *hop*); per-node
        #: lists live on each runtime.
        self.vehicles: List[BaseVehicle] = []
        self._on_spawn: Optional[Callable[[BaseVehicle], None]] = None
        self.corridor: List[CorridorRecord] = []
        self.handoffs = 0
        self.handoffs_delayed = 0
        self.handoff_wait_s = 0.0
        self._spawned = 0
        self._inflight = 0
        #: Wall seconds spent in :meth:`run`, None before it ran.
        self.sim_run_s: Optional[float] = None

        # Process creation order mirrors World (spawner, monitor,
        # watchdog) — per-node fan-out collapses to World's exact
        # order on a 1-node grid.
        self.env.process(self._spawner())
        for node in spec.nodes:
            self.env.process(self.nodes[node.name].safety_monitor())
        for node in spec.nodes:
            self.env.process(self.nodes[node.name].im_watchdog())

    # -- scenario seam -------------------------------------------------------
    @property
    def on_spawn(self) -> Optional[Callable[[BaseVehicle], None]]:
        """Hook fired with each agent right after it spawns, network
        wide (every node runtime shares it; hand-off re-spawns fire it
        again, so a scripted behaviour follows its vehicle across
        hops).  ``repro.scenarios.install`` works on grids unchanged.
        """
        return self._on_spawn

    @on_spawn.setter
    def on_spawn(self, hook: Optional[Callable[[BaseVehicle], None]]) -> None:
        self._on_spawn = hook
        for runtime in self.nodes.values():
            runtime.on_spawn = hook

    # -- spawning -----------------------------------------------------------
    def _spawner(self):
        for index, garrival in enumerate(self.arrivals):
            wait = garrival.time - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            self._spawn(index, garrival)

    def _make_agent(
        self,
        node: str,
        info,
        radio,
        clock,
        spawn_speed: float,
    ) -> BaseVehicle:
        """Build one per-hop agent at ``node`` (engine spawn wiring)."""
        vehicle = self.nodes[node].add_vehicle(
            info, radio, clock, spawn_speed, self.rng
        )
        self.vehicles.append(vehicle)
        return vehicle

    def _spawn(self, index: int, garrival: GridArrival) -> BaseVehicle:
        route = garrival.route
        hop = route.hops[0]
        runtime = self.nodes[hop.node]
        info = runtime.vehicle_info(
            index, garrival.arrival.spec, hop.movement
        )
        radio = self.channel.attach(f"V{index}")
        clock = runtime.make_clock(self.rng)
        vehicle = self._make_agent(
            hop.node, info, radio, clock, garrival.arrival.speed
        )
        record = CorridorRecord(
            vehicle_id=index,
            route_key=route.key,
            n_hops_planned=route.n_hops,
            spawn_node=hop.node,
            spawn_time=self.env.now,
        )
        record.hops.append((hop.node, vehicle.record))
        self.corridor.append(record)
        self._spawned += 1
        if route.n_hops > 1:
            # Only multi-hop vehicles get a watcher, so 1-node grids
            # schedule exactly the events a plain World does.
            self._inflight += 1
            self.env.process(self._handoff_runner(vehicle, record, route))
        return vehicle

    # -- hand-off -----------------------------------------------------------
    def _handoff_runner(self, vehicle: BaseVehicle, record: CorridorRecord, route):
        """Carry one vehicle across every link of its route."""
        cfg = self.config
        poll = cfg.agent.dt
        try:
            for hop_index in range(1, route.n_hops):
                link = route.links[hop_index - 1]
                hop = route.hops[hop_index]
                # 1. Wait for the current hop's agent to clear its box
                #    and outrun (despawn).
                while not vehicle.done:
                    yield self.env.timeout(poll)
                spec = vehicle.info.spec
                # 2. Cruise the link.  The agent already drove ``outrun``
                #    metres of it before despawning.
                cruise = min(link.speed_limit, spec.v_max)
                remaining = link.length - cfg.agent.outrun
                yield self.env.timeout(remaining / cruise)
                # 3. Respect car-following spacing on the destination
                #    lane: never materialise on top of a queued tail.
                lane = self.nodes[hop.node].lane(hop.movement.entry.value)
                waited = 0.0
                while True:
                    leader = next(
                        (v for v in reversed(lane) if not v.done), None
                    )
                    if leader is None or leader.front >= (
                        leader.info.spec.length + cfg.agent.gap_min
                    ):
                        break
                    waited += poll
                    yield self.env.timeout(poll)
                # 4. Re-spawn at the next node: same radio (address,
                #    sequence-guard and dedup continuity), same drifting
                #    clock, fresh agent and per-hop record.
                info = self.nodes[hop.node].vehicle_info(
                    record.vehicle_id, spec, hop.movement
                )
                previous = vehicle
                vehicle = self._make_agent(
                    hop.node, info, previous.radio, previous.clock, cruise
                )
                record.hops.append((hop.node, vehicle.record))
                record.handoff_wait_s += waited
                self.handoffs += 1
                if waited > 0.0:
                    self.handoffs_delayed += 1
                    self.handoff_wait_s += waited
                if self.obs is not None and self.obs.enabled:
                    self.obs.emit(
                        "grid.handoff",
                        self.env.now,
                        previous.radio.address,
                        vehicle_id=record.vehicle_id,
                        src=link.src,
                        dst=hop.node,
                        link=link.key,
                        hop=hop_index,
                        wait=waited,
                    )
        finally:
            self._inflight -= 1

    # -- execution ----------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return (
            bool(self.vehicles)
            and self._spawned == len(self.arrivals)
            and self._inflight == 0
            and all(v.done for v in self.vehicles)
        )

    def run(self) -> GridResult:
        """Run to completion (every trip finished) and collect results."""
        step = 1.0
        started = time.perf_counter()
        while not self.all_done and self.env.now < self.config.max_sim_time:
            self.env.run(until=self.env.now + step)
        self.sim_run_s = (self.sim_run_s or 0.0) + time.perf_counter() - started
        return self.result()

    # -- metrics ------------------------------------------------------------
    def node_result(self, node: str) -> SimResult:
        """Full single-intersection result view of one node."""
        return self.nodes[node].result(
            stats=self.channel.stats,
            per_endpoint=True,
            fault_injections=self.faults.snapshot() if self.faults else {},
            perf=self.nodes[node].perf_snapshot(),
        )

    def result(self) -> GridResult:
        """Snapshot the metrics of the current state."""
        if self.metrics is not None:
            # Final sample per node (same reason as World.result).
            for runtime in self.nodes.values():
                runtime.sample_metrics(self.env.now)
        return GridResult(
            spec=self.spec,
            per_node={
                node.name: self.node_result(node.name)
                for node in self.spec.nodes
            },
            corridor=list(self.corridor),
            sim_duration=self.env.now,
            handoffs=self.handoffs,
            handoffs_delayed=self.handoffs_delayed,
            handoff_wait_s=self.handoff_wait_s,
            perf=perf_dict(
                {
                    "des_events": self.env.events_processed,
                    "grid.handoffs": self.handoffs,
                    "grid.handoffs_delayed": self.handoffs_delayed,
                },
                self.sim_run_s,
            ),
            obs=(
                span_stats(build_spans(self.obs))
                if self.obs is not None
                else {}
            ),
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else {}
            ),
            violations={
                name: tuple(runtime.oracle.violations)
                for name, runtime in self.nodes.items()
                if runtime.oracle is not None
            },
        )
