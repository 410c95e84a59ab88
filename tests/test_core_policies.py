"""Unit tests for the three IM policies at the protocol level.

These drive the IMs directly over a zero-delay channel with scripted
requests — no vehicle agents — to pin down the protocol semantics:
what each IM replies, with which fields, and how its buffers differ.
"""

import pytest

from repro.core import (
    AimIM,
    CrossroadsIM,
    IMConfig,
    VtimIM,
    make_im,
    normalize_policy,
)
from repro.core.crossroads import book_crossroads
from repro.core.scheduler import ConflictScheduler
from repro.core.vtim import book_vtim, rtd_buffer
from repro.des import Environment
from repro.geometry import Approach, ConflictTable, IntersectionGeometry, Movement, Turn
from repro.kinematics.arrival import distance_at_te
from repro.network import (
    AimAccept,
    AimReject,
    AimRequest,
    Channel,
    CrossingRequest,
    CrossroadsCommand,
    ExitNotification,
    SyncRequest,
    SyncResponse,
    VelocityCommand,
)
from repro.vehicle import VehicleInfo, VehicleSpec


@pytest.fixture
def geometry():
    return IntersectionGeometry()


@pytest.fixture
def conflicts(geometry):
    return ConflictTable(geometry)


def build(policy, geometry, conflicts):
    env = Environment()
    channel = Channel(env)
    im = make_im(policy, env, channel, geometry, conflicts=conflicts)
    radio = channel.attach("V0")
    return env, channel, im, radio


def info(vid=0, movement=None, buffer=0.078):
    return VehicleInfo(
        vehicle_id=vid,
        spec=VehicleSpec(),
        movement=movement or Movement(Approach.SOUTH, Turn.STRAIGHT),
        buffer=buffer,
    )


def rx(env, radio, timeout=1.0):
    """Run until the radio has a message (or fail)."""
    env.run(until=env.now + timeout)
    assert radio.pending() > 0, "no response received"
    return radio.inbox.get_nowait()


class TestPolicyFactory:
    def test_normalize(self):
        assert normalize_policy("VTIM") == "vt-im"
        assert normalize_policy("qb-im") == "aim"
        assert normalize_policy("Crossroads") == "crossroads"
        with pytest.raises(ValueError):
            normalize_policy("nonsense")

    def test_make_im_types(self, geometry, conflicts):
        env = Environment()
        channel = Channel(env)
        assert isinstance(
            make_im("vt-im", env, channel, geometry, conflicts), VtimIM
        )
        env2 = Environment()
        channel2 = Channel(env2)
        assert isinstance(
            make_im("aim", env2, channel2, geometry), AimIM
        )


class TestSyncResponder:
    def test_sync_round_trip(self, geometry, conflicts):
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        radio.send(SyncRequest(sender="V0", receiver="IM", t0=123.0))
        msg = rx(env, radio)
        assert isinstance(msg, SyncResponse)
        assert msg.t0 == 123.0
        assert msg.t1 == msg.t2  # instantaneous responder


class TestVtim:
    def test_reply_is_velocity_command(self, geometry, conflicts):
        env, channel, im, radio = build("vt-im", geometry, conflicts)
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0, vehicle_info=info()
            )
        )
        msg = rx(env, radio)
        assert isinstance(msg, VelocityCommand)
        assert 0 < msg.vt <= 3.0
        assert msg.toa > 0

    def test_rtd_buffer_applied(self, geometry, conflicts):
        env, channel, im, radio = build("vt-im", geometry, conflicts)
        assert rtd_buffer(im.config) == pytest.approx(0.45)
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0, vehicle_info=info()
            )
        )
        rx(env, radio)
        assert im.scheduler.reservation_for(0).buffer == pytest.approx(0.078 + 0.45)

    def test_exit_releases_reservation(self, geometry, conflicts):
        env, channel, im, radio = build("vt-im", geometry, conflicts)
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0, vehicle_info=info()
            )
        )
        rx(env, radio)
        assert len(im.scheduler) == 1
        radio.send(ExitNotification(sender="V0", receiver="IM", exit_time=env.now))
        env.run(until=env.now + 0.1)
        assert len(im.scheduler) == 0


class TestCrossroads:
    def test_te_is_tt_plus_wcrtd(self, geometry, conflicts):
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        tt = 0.0
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=tt, dt=3.0, vc=2.0, vehicle_info=info()
            )
        )
        msg = rx(env, radio)
        assert isinstance(msg, CrossroadsCommand)
        assert msg.te == pytest.approx(tt + im.config.wc_rtd)
        assert msg.toa >= msg.te

    def test_te_guard_under_backlog(self, geometry, conflicts):
        """A very stale TT cannot produce a TE in the past."""
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        env.run(until=10.0)
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0, vehicle_info=info()
            )
        )
        msg = rx(env, radio)
        assert isinstance(msg, CrossroadsCommand)
        assert msg.te >= 10.0
        assert msg.te == pytest.approx(10.0 + im.config.wc_network)

    def test_no_rtd_buffer_means_tighter_schedule(self, geometry, conflicts):
        """Second conflicting vehicle is admitted sooner than under VT-IM."""

        def second_toa(policy):
            env = Environment()
            channel = Channel(env)
            im = make_im(policy, env, channel, geometry, conflicts=ConflictTable(geometry))
            r0 = channel.attach("V0")
            r1 = channel.attach("V1")
            m_a = Movement(Approach.SOUTH, Turn.STRAIGHT)
            m_b = Movement(Approach.EAST, Turn.STRAIGHT)
            r0.send(
                CrossingRequest(
                    sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=3.0,
                    vehicle_info=info(0, m_a),
                )
            )
            env.run(until=0.5)
            r1.send(
                CrossingRequest(
                    sender="V1", receiver="IM", tt=0.5, dt=3.0, vc=3.0,
                    vehicle_info=info(1, m_b),
                )
            )
            env.run(until=1.5)
            assert r1.pending() > 0
            return r1.inbox.get_nowait().toa

        assert second_toa("crossroads") < second_toa("vt-im")

    def test_wc_rtd_rise_never_disturbs_an_issued_grant(self, geometry, conflicts):
        """A live WC-RTD rise (``ImServer``'s sampler writes
        ``im.config.wc_rtd``) shapes later grants only: the booked
        crossing of an already-commanded vehicle keeps its TE, ToA,
        clear time and every occupancy window bit for bit, and its
        memoised windows equal a fresh computation."""
        import dataclasses

        env = Environment()
        channel = Channel(env)
        im = make_im("crossroads", env, channel, geometry, conflicts=conflicts)
        r0 = channel.attach("V0")
        r1 = channel.attach("V1")
        m_a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        m_b = Movement(Approach.EAST, Turn.STRAIGHT)

        def pinned(entry):
            windows = [
                tuple(t.hex() for t in entry.interval_occupancy(iv.b_in, iv.b_out))
                for m in geometry.movements
                for iv in conflicts.intervals(m, entry.movement)
            ]
            return (entry.profile.start_time.hex(), entry.toa.hex(),
                    entry.clear_time.hex(), windows)

        r0.send(CrossingRequest(sender="V0", receiver="IM", tt=0.0, dt=3.0,
                                vc=3.0, vehicle_info=info(0, m_a)))
        env.run(until=0.5)
        cmd0 = r0.inbox.get_nowait()
        entry0 = im.scheduler.reservation_for(0)
        assert entry0.profile.start_time == cmd0.te
        before = pinned(entry0)

        raised = 3.0 * im.config.wc_rtd
        im.config.wc_rtd = raised
        r1.send(CrossingRequest(sender="V1", receiver="IM", tt=0.5, dt=3.0,
                                vc=3.0, vehicle_info=info(1, m_b)))
        env.run(until=2.0)
        cmd1 = r1.inbox.get_nowait()
        assert cmd1.te == pytest.approx(0.5 + raised)

        assert im.scheduler.reservation_for(0) is entry0
        assert pinned(entry0) == before
        assert pinned(dataclasses.replace(entry0)) == before  # empty memo
        assert im.stats.invalidations == 0 and im.scheduler.holds(0)
        entry1 = im.scheduler.reservation_for(1)
        assert entry1.toa > entry0.toa
        for iv in conflicts.intervals(m_b, m_a):
            v1_in, _ = entry1.interval_occupancy(iv.a_in, iv.a_out)
            _, v0_out = entry0.interval_occupancy(iv.b_in, iv.b_out)
            assert v1_in >= v0_out - 1e-6


SOUTH = Movement(Approach.SOUTH, Turn.STRAIGHT)
EAST = Movement(Approach.EAST, Turn.STRAIGHT)


def crossroads(scheduler, tt=0.0, dt=3.0, vc=2.0, buffer=0.078, reply_at=0.0):
    """Book vehicle 0 (south, straight) through Crossroads' booking."""
    return book_crossroads(
        scheduler=scheduler, config=IMConfig(), info=info(buffer=buffer),
        tt=tt, dt=dt, vc=vc, reply_at=reply_at,
    )


def vtim(scheduler, vehicle_id=0, movement=SOUTH, spec=VehicleSpec(), vc=2.0):
    """Book one request 3 m out at ``now`` 0 through VT-IM's booking."""
    request = VehicleInfo(
        vehicle_id=vehicle_id, spec=spec, movement=movement, buffer=0.078
    )
    return book_vtim(
        scheduler=scheduler, config=IMConfig(), info=request, dt=3.0, vc=vc,
        now=0.0,
    )


class TestBookingFunctions:
    """Each boundary of the request-to-booking step, on a fresh
    scheduler with no DES: the live IMs and the analytic engine all book
    through these two functions."""

    def test_te_is_tt_plus_wc_rtd(self, conflicts):
        te, booking = crossroads(ConflictScheduler(conflicts), tt=1.0, reply_at=1.0075)
        assert te == 1.0 + IMConfig().wc_rtd
        assert booking.plan.profile.start_time == te

    def test_te_is_reply_at_when_later(self, conflicts):
        te, booking = crossroads(ConflictScheduler(conflicts), tt=1.0, reply_at=1.2)
        assert te == 1.2
        assert booking.plan.profile.start_time == te

    def test_state_at_te_is_dt_less_the_held_travel(self, conflicts):
        scheduler = ConflictScheduler(conflicts)
        te, _ = crossroads(scheduler, tt=0.0, dt=3.0, vc=2.0)
        assert distance_at_te(dt=3.0, vc=2.0, tt=0.0, te=te) == 3.0 - 2.0 * 0.15
        assert scheduler.reservation_for(0).line == pytest.approx(2.7)

    def test_state_at_te_floors_at_one_centimetre(self, conflicts):
        # From 0.2 m at 2 m/s the line is reached 0.1 s after TT, before TE.
        assert distance_at_te(dt=0.2, vc=2.0, tt=0.0, te=0.15) == 0.01
        scheduler = ConflictScheduler(conflicts)
        crossroads(scheduler, tt=0.0, dt=0.2, vc=2.0)
        assert scheduler.reservation_for(0).line == pytest.approx(0.01)

    def test_crossroads_books_the_vehicle_buffer(self, conflicts):
        scheduler = ConflictScheduler(conflicts)
        crossroads(scheduler, buffer=0.078)
        assert scheduler.reservation_for(0).buffer == 0.078

    def test_vtim_books_the_buffer_plus_v_max_wc_rtd(self, conflicts):
        scheduler = ConflictScheduler(conflicts)
        vtim(scheduler)
        config = IMConfig()
        assert scheduler.reservation_for(0).buffer == 0.078 + config.v_max * config.wc_rtd

    def test_vtim_unplannable_request_leaves_the_scheduler_as_it_was(self, conflicts):
        """A vehicle whose top speed is below VT-IM's arrival floor
        (1.2 m/s) cannot be planned: no booking, and the book, the
        waitlist and the comparison count do not move."""
        scheduler = ConflictScheduler(conflicts)
        vtim(scheduler, vehicle_id=0, movement=EAST)
        scheduler.note_request(1, SOUTH, 0.0)
        before = (scheduler.book, dict(scheduler._waiting), scheduler.comparisons)
        slow = VehicleSpec(v_max=1.0)
        assert vtim(scheduler, vehicle_id=1, spec=slow, vc=1.0) is None
        assert (scheduler.book, scheduler._waiting, scheduler.comparisons) == before


class TestAim:
    def test_accept_then_conflicting_reject(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r1 = channel.attach("V1")
        m_a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        m_b = Movement(Approach.EAST, Turn.STRAIGHT)
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(0, m_a)
            )
        )
        env.run(until=0.5)
        assert isinstance(r0.inbox.get_nowait(), AimAccept)
        # Conflicting trajectory at the same time: rejected.
        r1.send(
            AimRequest(
                sender="V1", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(1, m_b)
            )
        )
        env.run(until=0.9)
        assert isinstance(r1.inbox.get_nowait(), AimReject)

    def test_non_conflicting_both_accepted(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r1 = channel.attach("V1")
        m_a = Movement(Approach.SOUTH, Turn.STRAIGHT)
        m_b = Movement(Approach.NORTH, Turn.STRAIGHT)
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(0, m_a)
            )
        )
        env.run(until=0.5)
        assert isinstance(r0.inbox.get_nowait(), AimAccept)
        r1.send(
            AimRequest(
                sender="V1", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(1, m_b)
            )
        )
        env.run(until=0.9)
        assert isinstance(r1.inbox.get_nowait(), AimAccept)

    def test_stale_toa_rejected(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        env.run(until=5.0)
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(0)
            )
        )
        env.run(until=5.5)
        assert isinstance(r0.inbox.get_nowait(), AimReject)

    def test_beyond_horizon_rejected(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1e6, vc=3.0, vehicle_info=info(0)
            )
        )
        env.run(until=0.5)
        assert isinstance(r0.inbox.get_nowait(), AimReject)

    def test_nan_toa_rejected(self, geometry):
        """A NaN ToA fails every comparison, so it must be rejected as
        out of the window rather than swept and booked."""
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=float("nan"), vc=1.0,
                vehicle_info=info(0),
            )
        )
        env.run(until=0.5)
        assert isinstance(r0.inbox.get_nowait(), AimReject)
        assert im.reservations.claim_count == 0

    def test_exit_releases_tiles(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(0)
            )
        )
        env.run(until=0.5)
        r0.inbox.get_nowait()
        assert im.reservations.claim_count > 0
        r0.send(ExitNotification(sender="V0", receiver="IM", exit_time=env.now))
        env.run(until=0.7)
        assert im.reservations.claim_count == 0

    def test_launch_proposal_accepted_after_stop(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r0.send(
            AimRequest(
                sender="V0",
                receiver="IM",
                toa=1.0,
                vc=0.0,
                vehicle_info=info(0),
                accelerate=True,
                standoff=0.05,
            )
        )
        env.run(until=0.5)
        assert isinstance(r0.inbox.get_nowait(), AimAccept)

    def test_compute_cost_counts_cells(self, geometry):
        env = Environment()
        channel = Channel(env)
        im = make_im("aim", env, channel, geometry)
        r0 = channel.attach("V0")
        r0.send(
            AimRequest(
                sender="V0", receiver="IM", toa=1.0, vc=3.0, vehicle_info=info(0)
            )
        )
        env.run(until=0.5)
        assert im.cells_simulated > 100
        assert im.compute.total_time > 0


class TestQueueing:
    def test_duplicate_requests_deduplicated(self, geometry, conflicts):
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        for _ in range(5):
            radio.send(
                CrossingRequest(
                    sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0,
                    vehicle_info=info(),
                )
            )
        env.run(until=1.0)
        # Five copies arrive; at most one may slip in while the worker
        # is idle in the same instant, the rest coalesce.
        assert im.compute.requests <= 2
        assert radio.pending() == im.compute.requests

    def test_fifo_service_order_creates_queueing_delay(self, geometry, conflicts):
        """Simultaneous arrivals queue behind one compute core (Ch 4)."""
        env = Environment()
        channel = Channel(env)
        im = make_im("crossroads", env, channel, geometry, conflicts=conflicts)
        radios = [channel.attach(f"V{i}") for i in range(4)]
        movements = [
            Movement(a, Turn.STRAIGHT)
            for a in (Approach.NORTH, Approach.EAST, Approach.SOUTH, Approach.WEST)
        ]
        for i, (r, m) in enumerate(zip(radios, movements)):
            r.send(
                CrossingRequest(
                    sender=f"V{i}", receiver="IM", tt=0.0, dt=3.0, vc=3.0,
                    vehicle_info=info(i, m),
                )
            )
        env.run(until=1.0)
        # All four served; total compute is the paper's WC-CD ballpark.
        assert im.compute.requests == 4
        assert 0.08 < im.compute.total_time < 0.25

    def test_worst_service_time_is_the_max_charged(self, geometry, conflicts):
        """The running maximum equals ``max()`` over every charged
        service time, to the bit."""
        env = Environment()
        channel = Channel(env)
        im = make_im("crossroads", env, channel, geometry, conflicts=conflicts)
        assert im.stats.worst_service_time == 0.0
        charged = []
        charge = im.compute.charge

        def recording_charge(**work):
            charged.append(charge(**work))
            return charged[-1]

        im.compute.charge = recording_charge
        for i, approach in enumerate(
            (Approach.NORTH, Approach.EAST, Approach.SOUTH, Approach.WEST)
        ):
            channel.attach(f"V{i}").send(
                CrossingRequest(
                    sender=f"V{i}", receiver="IM", tt=0.0, dt=3.0, vc=3.0,
                    vehicle_info=info(i, Movement(approach, Turn.STRAIGHT)),
                )
            )
        env.run(until=1.0)
        assert len(charged) == 4 and len(set(charged)) > 1
        assert im.stats.worst_service_time.hex() == max(charged).hex()


class TestStaleRequestGuard:
    """The per-sender monotonic-seq guard in the base receive loop.

    A reordered (delay-spiked) old request processed after a newer one
    would reschedule the vehicle from out-of-date state — releasing the
    reservation it is physically committed to and handing the window to
    cross traffic.  The guard drops it instead.
    """

    def test_reordered_older_request_dropped(self, geometry, conflicts):
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        old = CrossingRequest(
            sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0, vehicle_info=info()
        )
        new = CrossingRequest(
            sender="V0", receiver="IM", tt=0.2, dt=2.6, vc=2.0, vehicle_info=info()
        )
        assert old.seq < new.seq
        radio.send(new)  # the newer request arrives first ...
        first = rx(env, radio)
        assert first.in_reply_to == new.seq
        booked_toa = first.toa
        radio.send(old)  # ... then the spiked stale copy limps in
        env.run(until=env.now + 1.0)
        assert im.stats.stale_requests_dropped == 1
        assert radio.pending() == 0, "stale request must not be answered"
        # The live reservation is untouched.
        assert len(im.scheduler) == 1
        (entry,) = im.scheduler.book
        assert entry.toa == pytest.approx(booked_toa)

    def test_in_order_requests_still_served(self, geometry, conflicts):
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        for tt in (0.0, 0.5):
            radio.send(
                CrossingRequest(
                    sender="V0", receiver="IM", tt=tt, dt=3.0, vc=2.0,
                    vehicle_info=info(),
                )
            )
            rx(env, radio)
        assert im.stats.stale_requests_dropped == 0
        assert im.stats.accepts == 2

    def test_guard_is_per_sender(self, geometry, conflicts):
        """V1's first request is not shadowed by V0's higher seqs."""
        env, channel, im, radio = build("crossroads", geometry, conflicts)
        r1 = channel.attach("V1")
        radio.send(
            CrossingRequest(
                sender="V0", receiver="IM", tt=0.0, dt=3.0, vc=2.0,
                vehicle_info=info(0),
            )
        )
        rx(env, radio)
        r1.send(
            CrossingRequest(
                sender="V1", receiver="IM", tt=0.1, dt=3.0, vc=2.0,
                vehicle_info=info(1, Movement(Approach.EAST, Turn.STRAIGHT)),
            )
        )
        msg = rx(env, r1)
        assert msg.in_reply_to is not None
        assert im.stats.stale_requests_dropped == 0
