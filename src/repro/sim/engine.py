"""The shared node runtime: one intersection's complete machinery.

:class:`NodeRuntime` owns everything that happens *at* one
intersection — the IM (with its scheduler), the per-lane vehicle
queues and spawn wiring, the ground-truth safety monitor, the 1 Hz
reservation-invalidation watchdog, perf/machine-counter harvesting,
the streaming-metrics sampler,
and the two scenario seams (``on_spawn`` hooks, ``safety_checks``
ticks).  :class:`~repro.sim.world.World` is a single-node
instantiation; :class:`~repro.grid.world.GridWorld` composes N of
them on one DES environment and one shared
:class:`~repro.network.transport.Transport` (the hand-off logic
between nodes stays in :mod:`repro.grid`).

What stays with the composer — and why
--------------------------------------
* **Master-RNG ownership.**  The composer draws the channel seed and
  passes its generator into :meth:`make_clock` / :meth:`add_vehicle`,
  which perform the per-spawn draws in the pinned order (clock offset,
  clock drift, clock RNG key, vehicle RNG key).  One stream across all
  nodes keeps a 1-node grid bit-identical to a plain world.
* **DES process creation.**  :meth:`safety_monitor` and
  :meth:`im_watchdog` are plain generators; the composer passes them
  to ``env.process`` in its documented order (the IM's own processes
  start inside ``make_im`` at runtime construction).
* **Transport scope.**  The runtime holds a reference for the IM but
  never attaches endpoints; radios are attached (and, across grid
  hand-offs, re-used) by the composer that owns the medium.

The golden engine-equivalence suite pins all of this: World,
GridWorld and the scenario library must replay bit-identically across
the extraction, serially and under a 2-worker pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.policy import make_im
from repro.geometry.collision import (
    OrientedRect,
    beyond_reach,
    bounding_radius,
    rects_overlap,
)
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import Approach, IntersectionGeometry
from repro.network.transport import Transport
from repro.obs.events import EventLog
from repro.obs.metrics import RTD_BUCKETS
from repro.sensors.plant import PlantConfig
from repro.sim.metrics import SimResult
from repro.timesync.clock import Clock
from repro.vehicle.agent import BaseVehicle, make_vehicle
from repro.vehicle.spec import VehicleInfo

__all__ = ["NodeRuntime", "lane_predecessor", "perf_dict"]


def perf_dict(
    counts: Dict[str, float], sim_run_s: Optional[float] = None
) -> Dict[str, float]:
    """Flat ``perf`` dict: sorted ``count.<name>`` keys, then
    ``time.sim_run_s`` when the composer timed the run."""
    perf = {f"count.{name}": float(counts[name]) for name in sorted(counts)}
    if sim_run_s is not None:
        perf["time.sim_run_s"] = sim_run_s
    return perf


def lane_predecessor(lane: List[BaseVehicle], me_index: int) -> Optional[BaseVehicle]:
    """The nearest not-yet-despawned vehicle ahead in ``lane``.

    ``me_index`` is the caller's spawn position in the lane list; the
    scan walks backwards from there so the returned leader is the one
    whose rear bumper bounds the caller's car-following headway.  A
    returned ``None`` means the full approach is clear — every earlier
    spawn has already cleared its box and outrun.  Bound per-spawn via
    ``functools.partial`` with the lane list *object* (shared with
    later spawns) and the index *value* (frozen at spawn time).  Runs
    every control tick, so it walks indices rather than copying the
    lane prefix.
    """
    for i in range(me_index - 1, -1, -1):
        earlier = lane[i]
        if not earlier.done:
            return earlier
    return None


class NodeRuntime:
    """One intersection's runtime on a shared DES + transport.

    Parameters
    ----------
    env:
        The (shared) DES environment.
    policy_spec:
        A resolved policy (:func:`repro.core.registry.resolve_policy`
        output) — resolution stays with the composer, which may mix
        policies across nodes.
    transport:
        The shared medium; consumed strictly through the
        :class:`~repro.network.transport.Transport` surface.
    geometry / conflicts:
        Node-local intersection layout and (for VT-style policies) its
        conflict table, shared across nodes of one grid.
    config:
        The experiment's :class:`~repro.sim.world.WorldConfig`.
    im_address:
        This node's IM endpoint address (``config.im.address`` itself
        for a single-node world, ``"{base}.{node}"`` on grids).
    name:
        Label used as the actor of emitted safety events (``"world"``
        for the single-intersection world, the node name on grids).
    obs:
        Optional event log, threaded through IM and scheduler exactly
        as the pre-engine worlds did.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  The runtime
        samples its health gauges (per-approach queue depth, IM
        backlog, degraded population, reservation-book and tile-claim
        occupancy) from the safety-monitor tick and feeds the online
        round-trip-delay histogram — all labelled ``node=<name>`` so
        grids get per-node series.  The same tick advances the shared
        counters to their single sources: ``des.events`` to the
        kernel's ``events_processed``, ``net.*`` to the transport's
        ``NetworkStats``, and any composer total in :attr:`totals`.
        Sampling only observes (no RNG, no DES events), so attaching a
        registry never changes a run's summary.
    """

    def __init__(
        self,
        env,
        policy_spec,
        transport: Transport,
        geometry: IntersectionGeometry,
        conflicts: Optional[ConflictTable],
        config,
        im_address: str,
        name: str = "world",
        obs: Optional[EventLog] = None,
        metrics=None,
    ):
        self.env = env
        self.spec = policy_spec
        self.policy = policy_spec.name
        self.transport = transport
        self.geometry = geometry
        self.conflicts = conflicts
        self.config = config
        self.im_address = im_address
        self.name = name
        self.obs = obs
        self.metrics = metrics
        #: Counter name -> callable returning the running total it is
        #: sampled from (the composer adds its own, e.g. grid hand-offs).
        self.totals: Dict[str, Callable[[], float]] = {
            "des.events": lambda: env.events_processed,
        }
        #: Lazily built instrument cache (see :meth:`sample_metrics`).
        self._minstr: Optional[Dict[str, object]] = None
        #: Per-vehicle cursors into ``record.rtds`` so each completed
        #: round trip is folded into the online histogram exactly once.
        self._rtd_seen: List[int] = []
        im_cfg = (
            config.im
            if config.im.address == im_address
            else replace(config.im, address=im_address)
        )
        self.im = make_im(
            policy_spec,
            env,
            transport,
            geometry,
            conflicts=conflicts,
            config=im_cfg,
            aim_config=config.aim,
        )
        if obs is not None:
            # Injected post-construction to keep the policy-plugin IM
            # builder signature stable; safe because DES processes
            # scheduled in the constructor only execute under env.run().
            self.im.obs = obs
            scheduler = getattr(self.im, "scheduler", None)
            if scheduler is not None:
                scheduler.obs = obs
                scheduler.obs_now = lambda: self.env.now
        #: Per approach, the plain floats the monitor places a vehicle
        #: on its approach with: the lane's entry point on the box edge,
        #: its inbound unit vector and its heading.
        self._approach_frames: Dict[Approach, Tuple[float, ...]] = {
            approach: (
                *geometry.entry_point(approach).tolist(),
                *approach.inbound_unit,
                approach.heading,
            )
            for approach in Approach
        }
        self.vehicles: List[BaseVehicle] = []
        self._lanes: Dict[str, List[BaseVehicle]] = {}
        self.collisions = 0
        self.buffer_violations = 0
        self.min_separation = math.inf
        #: Pairs currently in body overlap.  A pair that separates is
        #: cleared, so a later re-collision opens a *new* episode —
        #: ``collisions`` counts distinct contact events, not pairs.
        self._touching_pairs = set()
        #: ``(onset_time, (id_a, id_b))`` per collision episode; always
        #: satisfies ``len(collision_episodes) == collisions``.
        self.collision_episodes: List[Tuple[float, Tuple[int, int]]] = []
        #: Optional hook called with each vehicle right after it spawns
        #: (the scenario layer attaches behaviour processes here).  Must
        #: never draw from an RNG shared with the world: a ``None`` hook
        #: and a no-op hook are bit-identical.
        self.on_spawn: Optional[Callable[[BaseVehicle], None]] = None
        #: Extra per-tick safety checks, called as ``check(now)`` from
        #: the safety monitor after the pairwise sweep.  Checks only
        #: *observe* (no RNG, no DES events), so attaching one never
        #: changes a run's summary.
        self.safety_checks: List[Callable[[float], None]] = []
        #: Slot for an attached :class:`~repro.scenarios.SafetyOracle`
        #: (set by the scenario layer; read duck-typed by
        #: ``GridResult`` for per-node violation attribution).
        self.oracle = None

    # -- spawning -----------------------------------------------------------
    def vehicle_info(self, vehicle_id: int, spec, movement) -> VehicleInfo:
        """Per-hop vehicle identity with this world's planning buffer."""
        return VehicleInfo(
            vehicle_id=vehicle_id,
            spec=spec,
            movement=movement,
            buffer=self.config.im.base_buffer,
        )

    def make_clock(self, master_rng: np.random.Generator) -> Clock:
        """Draw a fresh drifting clock (three master-RNG draws, in the
        pinned order: offset, drift, child RNG key)."""
        cfg = self.config
        return Clock(
            offset=float(
                master_rng.uniform(-cfg.clock_offset_bound, cfg.clock_offset_bound)
            ),
            drift=float(
                master_rng.uniform(-cfg.clock_drift_bound, cfg.clock_drift_bound)
            ),
            epoch=self.env.now,
            rng=np.random.default_rng(master_rng.integers(2 ** 63)),
        )

    def plant_config(self) -> PlantConfig:
        cfg = self.config
        plant_config = cfg.plant
        if cfg.ideal_vehicles:
            plant_config = PlantConfig(
                a_max=plant_config.a_max,
                d_max=plant_config.d_max,
                v_max=plant_config.v_max,
                tau=1e-3,
                accel_noise_std=0.0,
                encoder=plant_config.encoder,
            )
        return plant_config

    def lane(self, entry_value: str) -> List[BaseVehicle]:
        """This node's (created-on-demand) queue for one entry arm."""
        return self._lanes.setdefault(entry_value, [])

    def add_vehicle(
        self,
        info: VehicleInfo,
        radio,
        clock: Clock,
        spawn_speed: float,
        master_rng: np.random.Generator,
    ) -> BaseVehicle:
        """Build one protocol-running agent at this node (one master-RNG
        draw: the vehicle's child RNG key), register it into its lane,
        and fire the ``on_spawn`` seam."""
        cfg = self.config
        lane = self.lane(info.movement.entry.value)
        vehicle = make_vehicle(
            self.spec,
            self.env,
            info,
            radio,
            clock,
            path_length=self.geometry.crossing_distance(info.movement),
            approach_length=self.geometry.approach_length,
            spawn_speed=min(spawn_speed, info.spec.v_max),
            plant_config=self.plant_config(),
            im_address=self.im_address,
            predecessor=partial(lane_predecessor, lane, len(lane)),
            config=cfg.agent,
            rng=np.random.default_rng(master_rng.integers(2 ** 63)),
            plant_headroom=1.0 if cfg.ideal_vehicles else cfg.plant_headroom,
            obs=self.obs,
        )
        if cfg.ideal_vehicles:
            vehicle.plant.ideal = True
        lane.append(vehicle)
        self.vehicles.append(vehicle)
        if self.on_spawn is not None:
            self.on_spawn(vehicle)
        return vehicle

    # -- ground-truth poses --------------------------------------------------
    def pose_of(self, vehicle: BaseVehicle) -> OrientedRect:
        """Node-frame footprint of a vehicle's *body* (no buffer).

        Scalar arithmetic, coordinate by coordinate, in the order the
        2-vector form ``entry - back * inbound_unit`` (approach) or
        ``end + over * (cos, sin)`` (outrun) evaluates, so the floats
        are numpy's.
        """
        info = vehicle.info
        movement = info.movement
        spec = info.spec
        approach = self.geometry.approach_length
        centre_s = vehicle.plant.position - spec.length / 2.0
        if centre_s < approach:
            ex, ey, fx, fy, heading = self._approach_frames[movement.entry]
            back = approach - centre_s
            cx, cy = ex - back * fx, ey - back * fy
        else:
            path = self.geometry.path(movement)
            s = centre_s - approach
            path_len = path.length
            if s <= path_len:
                cx, cy = path.point_at(s)
                heading = path.heading_at(s)
            else:
                ex, ey = path.point_at(path_len)
                heading = path.heading_at(path_len)
                over = s - path_len
                cx = ex + over * math.cos(heading)
                cy = ey + over * math.sin(heading)
        return OrientedRect(
            cx=cx, cy=cy, heading=heading, length=spec.length, width=spec.width
        )

    def in_box(self, vehicle: BaseVehicle) -> bool:
        approach = self.geometry.approach_length
        info = vehicle.info
        front = vehicle.plant.position
        return (
            front + info.buffer >= approach
            and front - info.spec.length - info.buffer
            <= approach + vehicle.path_length
        )

    # -- periodic processes (composer passes these to env.process) ----------
    def safety_monitor(self):
        """Ground-truth sweep of all in-box footprints at ``safety_dt``.

        Each in-box vehicle's pose is built once per sweep.  Every pair
        feeds ``min_separation``; pairs :func:`beyond_reach` of each
        other (bounding circles of the buffered footprints apart) skip
        both separating-axis tests, whose verdicts there are False.
        """
        touching = self._touching_pairs
        while True:
            active = [
                v for v in self.vehicles if not v.done and self.in_box(v)
            ]
            poses = []
            if len(active) > 1:
                for v in active:
                    spec = v.info.spec
                    poses.append((
                        v,
                        self.pose_of(v),
                        bounding_radius(spec.length, spec.width, v.info.buffer),
                    ))
            for (a, rect_a, reach_a), (b, rect_b, reach_b) in (
                itertools.combinations(poses, 2)
            ):
                gap = math.hypot(rect_a.cx - rect_b.cx, rect_a.cy - rect_b.cy)
                self.min_separation = min(self.min_separation, gap)
                pair = (min(a.info.vehicle_id, b.info.vehicle_id),
                        max(a.info.vehicle_id, b.info.vehicle_id))
                if beyond_reach(gap, reach_a, reach_b):
                    # Neither the bodies nor the buffered footprints
                    # touch: only an open episode can end here.
                    touching.discard(pair)
                elif rects_overlap(rect_a, rect_b):
                    # Episode semantics: a sustained overlap counts
                    # once at onset; once the bodies separate the pair
                    # is cleared, so a distinct later contact counts
                    # as a new episode.
                    if pair not in touching:
                        touching.add(pair)
                        self.collisions += 1
                        self.collision_episodes.append((self.env.now, pair))
                        if self.obs is not None and self.obs.enabled:
                            self.obs.emit(
                                "safety.collision", self.env.now, self.name,
                                vehicle_a=pair[0], vehicle_b=pair[1],
                            )
                elif pair in touching:
                    touching.discard(pair)
                elif a.info.movement.entry != b.info.movement.entry and rects_overlap(
                    rect_a.inflated_longitudinal(a.info.buffer),
                    rect_b.inflated_longitudinal(b.info.buffer),
                ):
                    # Buffered-footprint contact between *cross-traffic*
                    # vehicles: the planned-safety margin was consumed.
                    # Same-lane pairs queueing at the line are expected
                    # to sit closer than two buffers and are excluded.
                    self.buffer_violations += 1
            for check in self.safety_checks:
                check(self.env.now)
            if self.metrics is not None:
                self.sample_metrics(self.env.now)
            yield self.env.timeout(self.config.safety_dt)

    def im_watchdog(self):
        """1 Hz sweep invalidating reservations of quiet vehicles.

        Lives outside the IM: an infinite periodic process in
        :class:`~repro.core.base.BaseIM` would keep the event queue
        non-empty and hang unit tests that ``env.run()`` with no
        ``until`` (the composer's :meth:`run` steps in bounded
        increments instead).
        """
        while True:
            yield self.env.timeout(1.0)
            self.im.invalidate_quiet(self.env.now)

    # -- streaming metrics ---------------------------------------------------
    def sample_metrics(self, now: float) -> None:
        """Record this node's health series into the metrics registry.

        Invoked from the safety-monitor tick (``config.safety_dt``) and
        once more at result time so the final protocol exchanges are
        counted.  Purely observational: reads existing state, draws
        from no RNG, schedules no DES event — the metrics-off
        bit-identity test pins that.
        """
        registry = self.metrics
        if registry is None:
            return
        for name, total in self.totals.items():
            registry.counter(name).advance_to(total(), now)
        stats = self.transport.stats
        stats.advance(registry, now)
        registry.gauge("net.inflight").set(stats.inflight, now)
        cached = self._minstr
        if cached is None:
            labels = {"node": self.name}
            cached = self._minstr = {
                "active": registry.gauge("node.vehicles_active", labels=labels),
                "degraded": registry.gauge("vehicles.degraded", labels=labels),
                "backlog": registry.gauge("im.backlog", labels=labels),
                "pending": registry.gauge("im.pending", labels=labels),
                # Occupancy gauges only where the IM has the structure:
                # a reservation book (VT-style) or a tile grid (AIM).
                "book": (
                    registry.gauge("scheduler.reservations", labels=labels)
                    if getattr(self.im, "scheduler", None) is not None
                    else None
                ),
                "tiles": (
                    registry.gauge("tiles.claims", labels=labels)
                    if getattr(self.im, "reservations", None) is not None
                    else None
                ),
                "rtd": registry.histogram(
                    "vehicle.rtd_seconds", labels=labels, buckets=RTD_BUCKETS
                ),
                "queues": {},
            }
        active = 0
        degraded = 0
        for vehicle in self.vehicles:
            if not vehicle.done:
                active += 1
                if vehicle.monitor.degraded:
                    degraded += 1
        cached["active"].set(active, now)
        cached["degraded"].set(degraded, now)
        queues = cached["queues"]
        for entry, lane in self._lanes.items():
            gauge = queues.get(entry)
            if gauge is None:
                gauge = queues.setdefault(
                    entry,
                    registry.gauge(
                        "node.queue_depth",
                        labels={"node": self.name, "approach": entry},
                    ),
                )
            gauge.set(sum(1 for v in lane if not v.done), now)
        work_queue = getattr(self.im, "_work_queue", None)
        if work_queue is not None:
            cached["backlog"].set(len(work_queue), now)
        pending = getattr(self.im, "_pending", None)
        if pending is not None:
            cached["pending"].set(len(pending), now)
        if cached["book"] is not None:
            cached["book"].set(len(self.im.scheduler), now)
        if cached["tiles"] is not None:
            cached["tiles"].set(self.im.reservations.claim_count, now)
        # Online RTD distribution: fold in the round trips completed
        # since the previous sample (cursor per vehicle, so no sample
        # list is ever re-read and nothing is retained beyond the
        # histogram's fixed bucket counts).
        histogram = cached["rtd"]
        cursors = self._rtd_seen
        for index, vehicle in enumerate(self.vehicles):
            if index == len(cursors):
                cursors.append(0)
            rtds = vehicle.record.rtds
            seen = cursors[index]
            if len(rtds) > seen:
                for rtd in rtds[seen:]:
                    histogram.observe(rtd, now)
                cursors[index] = len(rtds)

    # -- metrics -------------------------------------------------------------
    def machine_counters(self) -> Dict[str, float]:
        """Harvest the ROADMAP's per-machine protocol counters.

        All values derive from deterministic machine state (sim-time
        and message accounting, never wall clock), so jobs=1 and
        jobs=2 merges of the same seeds agree exactly.
        """
        loops = [v.proto for v in self.vehicles]
        syncs = [v.sync for v in self.vehicles]
        monitors = [v.monitor for v in self.vehicles]
        guard = self.im.guard
        return {
            "machine.request_loop.exchanges": sum(l.exchanges for l in loops),
            "machine.request_loop.timeouts": sum(l.timeouts for l in loops),
            "machine.request_loop.discarded": sum(l.discarded for l in loops),
            "machine.timesync.sessions": sum(s.sessions for s in syncs),
            "machine.timesync.samples": sum(s.samples for s in syncs),
            "machine.timesync.resamples": sum(s.resamples for s in syncs),
            "machine.degradation.timeouts":
                sum(m.timeouts_total for m in monitors),
            "machine.degradation.contacts": sum(m.contacts for m in monitors),
            "machine.degradation.entries":
                sum(m.degraded_entries for m in monitors),
            "machine.degradation.degraded_s":
                sum(m.degraded_time for m in monitors),
            "machine.sequence_guard.admitted": guard.admitted,
            "machine.sequence_guard.drops": guard.drops,
            "machine.sequence_guard.stale_cancels": guard.stale_cancels,
            "machine.timesync_responder.responses":
                self.im.sync_responder.responses,
        }

    def perf_snapshot(
        self,
        counts: Optional[Dict[str, float]] = None,
        sim_run_s: Optional[float] = None,
    ) -> Dict[str, float]:
        """The flat ``SimResult.perf`` dict: the composer's ``counts``
        (the kernel's event count, omitted per grid node) plus this
        node's machine and tile counters as ``count.<name>``, the
        composer's ``sim_run`` wall time as ``time.sim_run_s``, and
        the AIM footprint-cache ``tile_cache_hit_rate``."""
        counts = dict(counts or {})
        counts.update(self.machine_counters())
        reservations = getattr(self.im, "reservations", None)
        if reservations is not None:  # AIM only
            grid = reservations.grid
            counts["tile_cells_tested"] = grid.cells_tested
            counts["tile_cache_hits"] = grid.cache_hits
            counts["tile_cache_misses"] = grid.cache_misses
            counts["tile_cells_purged"] = reservations.purged_total
            counts["tile_cells_simulated"] = self.im.cells_simulated
        perf = perf_dict(counts, sim_run_s)
        if reservations is not None:
            perf["tile_cache_hit_rate"] = grid.cache_hit_rate
        return perf

    def result(
        self,
        stats,
        per_endpoint: bool,
        fault_injections: Dict,
        perf: Dict[str, float],
        obs_stats: Optional[Dict[str, float]] = None,
        metrics_snapshot: Optional[Dict] = None,
    ) -> SimResult:
        """This node's single-intersection result view.

        ``stats`` is the transport's counter object; ``per_endpoint``
        selects this IM's ``by_endpoint`` share of a shared medium
        (grids) versus the global totals (a single-node world, where
        the two coincide by the ``by_endpoint[im] == sent`` identity).
        """
        if per_endpoint:
            addr = self.im_address
            messages_sent = int(stats.by_endpoint[addr])
            bytes_sent = int(stats.bytes_by_endpoint[addr])
            duplicates_dropped = int(stats.dupes_by_endpoint[addr])
        else:
            messages_sent = stats.sent
            bytes_sent = stats.bytes_sent
            duplicates_dropped = stats.duplicates_dropped
        return SimResult(
            policy=self.policy,
            records=[v.record for v in self.vehicles],
            sim_duration=self.env.now,
            compute_time=self.im.compute.total_time,
            compute_requests=self.im.compute.requests,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            messages_by_type=dict(stats.by_type),
            rejects=self.im.stats.rejects,
            collisions=self.collisions,
            buffer_violations=self.buffer_violations,
            min_separation=self.min_separation,
            worst_service_time=self.im.stats.worst_service_time,
            duplicates_dropped=duplicates_dropped,
            losses_by_reason={k: int(v) for k, v in sorted(stats.by_reason.items())},
            fault_injections=fault_injections,
            reservation_invalidations=self.im.stats.invalidations,
            stale_requests_dropped=self.im.stats.stale_requests_dropped,
            perf=perf,
            obs=obs_stats if obs_stats is not None else {},
            metrics=metrics_snapshot if metrics_snapshot is not None else {},
        )
