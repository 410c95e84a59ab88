"""AIM: the query-based reservation IM baseline (paper Ch 5.2).

Protocol (Dresner & Stone 2004/2008):  the vehicle proposes "I will
arrive at ``ToA`` at speed ``VC``"; the IM *simulates the trajectory*
over a space-time tile grid and answers accept/reject.  Rejected
vehicles slow down and re-request — the "trial and error scheme" whose
re-simulation cost and message storms the paper measures at up to
16-20X the Crossroads overhead.

No RTD buffer is needed (the vehicle, not the IM, fixes the arrival
time), but the yes/no interface cannot optimise and saturates early.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import BaseIM, IMConfig, _vehicle_id_from_address
from repro.core.compute import AimComputeModel, ComputeModel
from repro.des import Environment
from repro.geometry.layout import IntersectionGeometry, Movement, Path
from repro.geometry.tiles import TileFootprint, TileGrid, TileReservations
from repro.network.channel import Radio
from repro.network.messages import (
    AimAccept,
    AimReject,
    AimRequest,
    ExitNotification,
    Message,
)

__all__ = ["AimConfig", "AimIM"]

#: Pose-quantisation granularity of the trajectory sweep, in *tiles* of
#: arc length.  Poses are snapped to a per-path table of precomputed
#: quantised poses and rasterised with a conservative pad that provably
#: makes each snapped footprint a superset of the exact one — identical
#: safety guarantees, and the footprint cache collapses the continuum
#: of poses onto a few dozen table entries per path (hit rates >90%
#: instead of ~50%).
POSE_QUANT = 0.75


class AimConfig:
    """AIM-specific knobs.

    Parameters
    ----------
    tiles_per_side:
        Spatial resolution of the reservation grid.
    slot:
        Temporal resolution of the reservation grid, seconds.
    sim_step:
        Trajectory-simulation time step (should be <= slot / 2 so no
        slot is skipped).
    """

    def __init__(
        self,
        tiles_per_side: int = 16,
        slot: float = 0.08,
        sim_step: float = 0.04,
        max_horizon: float = 20.0,
    ):
        if tiles_per_side < 1:
            raise ValueError("tiles_per_side must be >= 1")
        if slot <= 0 or sim_step <= 0:
            raise ValueError("slot and sim_step must be positive")
        if sim_step > slot:
            raise ValueError("sim_step must not exceed slot")
        if max_horizon <= 0:
            raise ValueError("max_horizon must be positive")
        self.tiles_per_side = tiles_per_side
        self.slot = slot
        self.sim_step = sim_step
        #: Reject proposals further than this in the future outright
        #: (AIM implementations cap the reservation horizon).
        self.max_horizon = max_horizon


def _angle_diff(a: float, b: float) -> float:
    """Absolute angular difference, wrapped to [0, pi]."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return abs(d)


class _PoseTable:
    """Precomputed quantised poses along one movement path.

    Entry ``k`` is the pose (point + heading) at the snapped arc
    position ``s_k = min(k * quant, path.length)``; any exact arc
    position snaps to the entry at most ``quant / 2`` away
    (:meth:`index_of`).

    ``dtheta_max`` bounds the heading change over any ``quant / 2``
    arc-length window of the path (paths are arc-length polylines with
    piecewise-constant heading, so the bound is the max heading
    difference over segment pairs whose gap is within the window).  It
    feeds the conservative rasterisation pad that makes a snapped
    footprint a provable superset of the exact one.

    Per vehicle size ``(length, width, buffer, pad)`` the table also
    keeps its entries' footprint-cache keys, rounded once
    (:meth:`TileGrid.pose_keys <repro.geometry.tiles.TileGrid.pose_keys>`),
    and each entry's footprint bitmap row once a sweep has been served
    it (:meth:`sweep_state`).  A served row is the exact value the
    grid's cache holds for that key, so rows never go stale; the
    grid's geometry is fixed for the IM's lifetime.  Vehicle sizes
    arrive in requests, so at most :attr:`MAX_SIZES` are kept, oldest
    dropped first; a dropped size is rebuilt on its next request, and
    no counter or footprint depends on whether it was kept.
    """

    MAX_SIZES = 8

    __slots__ = (
        "quant", "length", "n_entries", "xs", "ys", "headings",
        "dtheta_max", "_sweeps",
    )

    def __init__(self, path: Path, quant: float):
        self.quant = quant
        self.length = path.length
        n_last = int(math.ceil(path.length / quant))
        self.n_entries = n_last + 1
        xs = np.empty(self.n_entries)
        ys = np.empty(self.n_entries)
        headings = np.empty(self.n_entries)
        for k in range(self.n_entries):
            s_k = min(k * quant, path.length)
            point = path.point_at(s_k)
            xs[k] = float(point[0])
            ys[k] = float(point[1])
            headings[k] = path.heading_at(s_k)
        self.xs, self.ys, self.headings = xs, ys, headings
        window = quant / 2.0
        seg_headings = [
            math.atan2(d[1], d[0]) for d in np.diff(path.points, axis=0)
        ]
        cumlen = path.cumlen
        dtheta = 0.0
        for i in range(len(seg_headings)):
            for j in range(i + 1, len(seg_headings)):
                if cumlen[j] - cumlen[i + 1] > window:
                    break
                dtheta = max(dtheta, _angle_diff(seg_headings[j], seg_headings[i]))
        self.dtheta_max = dtheta
        #: (length, width, buffer, pad) -> (keys, rows, served).
        self._sweeps: Dict[tuple, Tuple[List[tuple], np.ndarray, List[bool]]] = {}

    def index_of(self, centre_s: float) -> int:
        """Entry nearest arc position ``centre_s`` after clamping it to
        the path (|error| <= quant/2; half-way ties round to even).
        A NaN position maps to entry 0."""
        clamped = min(max(0.0, centre_s), self.length)
        return min(round(clamped / self.quant), self.n_entries - 1)

    def sweep_state(
        self, grid: TileGrid, length: float, width: float, buffer: float,
        pad: float,
    ) -> Tuple[List[tuple], np.ndarray, List[bool]]:
        """``(keys, rows, served)`` of one vehicle size: every entry's
        cache key, and its bitmap row once ``served[k]`` is set."""
        dims = (length, width, buffer, pad)
        state = self._sweeps.get(dims)
        if state is None:
            if len(self._sweeps) >= self.MAX_SIZES:
                del self._sweeps[next(iter(self._sweeps))]
            keys = grid.pose_keys(
                self.xs.tolist(), self.ys.tolist(), self.headings.tolist(),
                length, width, buffer, pad,
            )
            rows = np.zeros((self.n_entries, grid.words), dtype=np.uint64)
            state = self._sweeps[dims] = (keys, rows, [False] * self.n_entries)
        return state


class AimIM(BaseIM):
    """First-come-first-served tile-reservation intersection manager."""

    def __init__(
        self,
        env: Environment,
        radio: Radio,
        geometry: IntersectionGeometry,
        config: Optional[IMConfig] = None,
        aim_config: Optional[AimConfig] = None,
        compute: Optional[ComputeModel] = None,
    ):
        super().__init__(
            env,
            radio,
            compute if compute is not None else AimComputeModel(),
            config,
        )
        self.geometry = geometry
        self.aim_config = aim_config if aim_config is not None else AimConfig()
        grid = TileGrid(geometry.box, self.aim_config.tiles_per_side)
        self.reservations = TileReservations(grid, slot=self.aim_config.slot)
        #: Cells simulated across all requests (compute-cost proxy).
        self.cells_simulated = 0
        #: Per-movement quantised-pose tables.
        self._pose_tables: Dict[Movement, _PoseTable] = {}

    # -- trajectory simulation ---------------------------------------------
    def _pose_table(self, movement: Movement) -> _PoseTable:
        table = self._pose_tables.get(movement)
        if table is None:
            quant = POSE_QUANT * self.reservations.grid.tile_size
            table = _PoseTable(self.geometry.path(movement), quant)
            self._pose_tables[movement] = table
        return table

    def simulate_cells(
        self,
        info,
        toa: float,
        vc: float,
        accelerate: bool,
        standoff: float = 0.0,
    ) -> TileFootprint:
        """Sweep the buffered footprint over the grid, slot by slot.

        Constant-speed proposals put the front bumper at the stop line
        at ``toa`` moving at ``vc``.  Launch proposals (``accelerate``)
        start from rest ``standoff`` metres *before* the line at ``toa``
        and ramp at ``a_max`` toward the speed limit.

        The sweep runs over quantised poses (:data:`POSE_QUANT`).
        Every exact pose is snapped to the nearest :class:`_PoseTable`
        entry (arc-position error <= quant/2) and rasterised with pad
        ``quant/2 + dtheta_max * R + 1e-9`` where ``R`` is the
        circumradius of the exact grown rectangle — by the triangle
        inequality a tile centre inside the exact rectangle is inside
        the padded snapped one, so the claimed cell set is a superset
        of the exact pose-at-a-time sweep's (``tests/tile_reference.py``,
        checked by ``tests/test_aim_batch_sweep.py``).

        One scalar loop walks the timesteps (``t += step``, the exact
        float sequence of the scalar sweep) and records each pose's
        table entry and slot.  The poses' precomputed keys then go
        through the grid's one lookup loop
        (:meth:`TileGrid.footprints_for_keys
        <repro.geometry.tiles.TileGrid.footprints_for_keys>`), which
        counts cache hits, misses and tested cells pose by pose and
        rasterises all misses in one numpy pass.  Each run of poses in
        one slot is ORed once (``np.bitwise_or.reduceat``) into that
        slot and, as a boundary guard, the next.
        """
        spec = info.spec
        path_length = self.geometry.path(info.movement).length
        length = spec.length
        buffer = info.buffer
        grid = self.reservations.grid
        table = self._pose_table(info.movement)
        v_max = min(spec.v_max, self.config.v_max)
        step = self.aim_config.sim_step
        slot = self.reservations.slot
        if accelerate:
            t_ramp = max((v_max - vc) / spec.a_max, 0.0)
            ramp_dist = vc * t_ramp + 0.5 * spec.a_max * t_ramp ** 2
            half_a = 0.5 * spec.a_max
        half_length = length / 2.0
        index_of = table.index_of
        idxs: List[int] = []
        #: First pose of each run of equal slot, and that slot.
        run_starts: List[int] = []
        run_slots: List[int] = []
        last_slot = None
        t = toa
        # Simulate until the buffered rear clears the path exit, or the
        # runaway guard (60 s of sweep) fires; the step cap only bounds
        # degenerate (non-finite) inputs.
        for pose in range(int(math.ceil(60.0 / step)) + 4):
            dt_rel = t - toa
            if accelerate:
                if dt_rel <= t_ramp:
                    s_front = vc * dt_rel + half_a * (dt_rel * dt_rel)
                else:
                    s_front = ramp_dist + v_max * (dt_rel - t_ramp)
                s_front = s_front - standoff
            else:
                s_front = vc * dt_rel
            if s_front - length - buffer > path_length or dt_rel > 60.0:
                break
            idxs.append(index_of(s_front - half_length))
            slot_k = math.floor(t / slot)
            if slot_k != last_slot:
                run_starts.append(pose)
                run_slots.append(slot_k)
                last_slot = slot_k
            t += step
        if not idxs:
            return TileFootprint(
                grid.n, 0, np.zeros((0, grid.words), dtype=np.uint64)
            )
        grow = grid.tile_size * math.sqrt(2.0) / 2.0
        radius = math.hypot(length / 2.0 + buffer + grow, spec.width / 2.0 + grow)
        pad = table.quant / 2.0 + table.dtheta_max * radius + 1e-9
        keys, rows, served = table.sweep_state(grid, length, spec.width, buffer, pad)
        entries = grid.footprints_for_keys([keys[k] for k in idxs])
        for k, bitmap in zip(idxs, entries):
            if not served[k]:
                rows[k] = bitmap
                served[k] = True
        per_slot = np.bitwise_or.reduceat(rows[idxs], run_starts, axis=0)
        s0 = run_slots[0]
        rel = np.array(run_slots) - s0
        masks = np.zeros((run_slots[-1] - s0 + 2, grid.words), dtype=np.uint64)
        masks[rel] = per_slot
        masks[rel + 1] |= per_slot  # guard the slot boundary
        return TileFootprint(grid.n, s0, masks)

    # -- protocol ---------------------------------------------------------------
    def handle_crossing(self, message: Message) -> Tuple[Optional[Message], dict]:
        if not isinstance(message, AimRequest):
            return None, {"cells": 0}
        info = message.vehicle_info
        vid = info.vehicle_id
        # The reply leaves only after this request's service time, so a
        # viable toa must clear the worst-case compute + network delay —
        # otherwise the vehicle would start the manoeuvre late relative
        # to its reservation.  Written as one chained comparison so a
        # NaN toa, which fails every comparison, is out of the window.
        out_of_window = not (
            self.env.now + self.config.wc_rtd
            <= message.toa
            <= self.env.now + self.aim_config.max_horizon
        )
        if out_of_window:
            self.stats.rejects += 1
            return (
                AimReject(sender=self.config.address, receiver=message.sender,
                          in_reply_to=message.seq),
                {"cells": 0},
            )
        cells = self.simulate_cells(
            info, message.toa, message.vc, message.accelerate, message.standoff
        )
        self.cells_simulated += len(cells)
        work = {"cells": len(cells)}
        if self.reservations.conflicts(cells, vid):
            self.stats.rejects += 1
            return (
                AimReject(sender=self.config.address, receiver=message.sender,
                          in_reply_to=message.seq),
                work,
            )
        # Re-reservation (e.g. retransmit after a lost accept) replaces
        # the old claim.
        self.reservations.release(vid)
        self.reservations.commit(cells, vid)
        self.stats.accepts += 1
        self.note_grant(message.sender, message.seq)
        response = AimAccept(
            sender=self.config.address,
            receiver=message.sender,
            toa=message.toa,
            vc=message.vc,
            in_reply_to=message.seq,
        )
        return response, work

    def handle_exit(self, message: ExitNotification) -> None:
        vehicle_id = _vehicle_id_from_address(message.sender)
        if vehicle_id is not None:
            self.reservations.release(vehicle_id)
        self.reservations.purge_before(self.env.now - 5.0)

    def invalidate_quiet(self, now: float) -> int:
        """Release tile claims of vehicles that never reported an exit.

        A vehicle whose *entire* reservation lies more than
        ``quiet_timeout`` in the past crossed (or died) without its
        exit notification ever arriving; its claims are withdrawn so
        the per-vehicle book stays bounded.  Claims extending into the
        future are kept — the owner may be silently cruising to its
        slot, which is the protocol's normal behaviour.
        """
        cutoff = self.reservations.slot_of(now - self.config.quiet_timeout)
        released = self.reservations.release_stale(cutoff)
        self.stats.invalidations += released
        return released
