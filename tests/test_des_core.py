"""Unit tests for the DES kernel event loop."""

import pytest

from repro.des import AnyOf, Environment, SimulationError


class TestEnvironmentBasics:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_empty_schedule_is_noop(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_step_on_empty_schedule_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")


class TestTimeout:
    def test_timeout_fires_at_right_time(self):
        env = Environment()
        times = []

        def proc(env):
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.5]

    def test_timeouts_fire_in_order(self):
        env = Environment()
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 3.0, "c"))
        env.process(proc(env, 1.0, "a"))
        env.process(proc(env, 2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fifo_by_creation(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(proc(env, "first"))
        env.process(proc(env, "second"))
        env.run()
        assert order == ["first", "second"]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value_passed_through(self):
        env = Environment()
        seen = []

        def proc(env):
            value = yield env.timeout(1.0, value="payload")
            seen.append(value)

        env.process(proc(env))
        env.run()
        assert seen == ["payload"]

    def test_zero_delay_timeout(self):
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(0.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [0.0]


class TestEvents:
    def test_succeed_delivers_value(self):
        env = Environment()
        ev = env.event()
        got = []

        def waiter(env, ev):
            value = yield ev
            got.append(value)

        def trigger(env, ev):
            yield env.timeout(1.0)
            ev.succeed(42)

        env.process(waiter(env, ev))
        env.process(trigger(env, ev))
        env.run()
        assert got == [42]

    def test_double_trigger_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self):
        env = Environment()
        ev = env.event()
        caught = []

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter(env, ev))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_propagates_to_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(RuntimeError("unheard"))
        with pytest.raises(RuntimeError, match="unheard"):
            env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42

        proc = env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not proc.ok


class TestProcesses:
    def test_return_value_becomes_process_value(self):
        env = Environment()

        def sub(env):
            yield env.timeout(1.0)
            return "result"

        def main(env, out):
            value = yield env.process(sub(env))
            out.append(value)

        out = []
        env.process(main(env, out))
        env.run()
        assert out == ["result"]

    def test_run_until_process_returns_its_value(self):
        env = Environment()

        def p(env):
            yield env.timeout(2.0)
            return 7

        assert env.run(until=env.process(p(env))) == 7

    def test_exception_in_process_propagates(self):
        env = Environment()

        def p(env):
            yield env.timeout(1.0)
            raise ValueError("inner")

        env.process(p(env))
        with pytest.raises(ValueError, match="inner"):
            env.run()

    def test_exception_caught_by_parent(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child died")

        def parent(env, log):
            try:
                yield env.process(child(env))
            except ValueError:
                log.append("caught")

        log = []
        env.process(parent(env, log))
        env.run()
        assert log == ["caught"]

    def test_non_generator_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestConditions:
    def test_any_of_fires_on_first(self):
        env = Environment()
        done = []

        def p(env):
            t1 = env.timeout(1.0, value="fast")
            t2 = env.timeout(3.0, value="slow")
            result = yield AnyOf(env, [t1, t2])
            done.append((env.now, list(result.values())))

        env.process(p(env))
        env.run()
        assert done == [(1.0, ["fast"])]

    def test_any_of_with_already_processed_event(self):
        env = Environment()
        log = []

        def p(env):
            t = env.timeout(1.0)
            yield t
            # t is processed now; AnyOf should still fire.
            result = yield AnyOf(env, [t, env.timeout(50.0)])
            log.append(env.now)

        env.process(p(env))
        env.run(until=5.0)
        assert log == [1.0]


class TestDeterminism:
    def test_two_identical_runs_agree(self):
        def build():
            env = Environment()
            trace = []

            def a(env):
                for _ in range(5):
                    yield env.timeout(0.7)
                    trace.append(("a", env.now))

            def b(env):
                for _ in range(5):
                    yield env.timeout(1.1)
                    trace.append(("b", env.now))

            env.process(a(env))
            env.process(b(env))
            env.run()
            return trace

        assert build() == build()


class TestKernelStrictness:
    def test_nan_delay_and_nan_start_rejected(self):
        """No event time is NaN, so one ``<= horizon`` loop serves
        ``step`` and every form of ``run``."""
        with pytest.raises(ValueError):
            Environment().timeout(float("nan"))
        with pytest.raises(ValueError):
            Environment(initial_time=float("nan"))

    def test_step_and_run_process_the_same_order(self):
        def build():
            env = Environment()
            trace = []

            def p(env, delay, tag):
                for _ in range(4):
                    yield env.timeout(delay)
                    trace.append((tag, env.now))

            env.process(p(env, 0.5, "a"))
            env.process(p(env, 0.75, "b"))
            env.process(p(env, 0.5, "c"))
            return env, trace

        stepped, by_step = build()
        while stepped.peek() < float("inf"):
            stepped.step()
        ran, by_run = build()
        ran.run(until=1.0)
        ran.run()
        assert by_step == by_run
        # Three starts, twelve timeouts, three process ends.
        assert stepped.events_processed == ran.events_processed == 18


#: SHA-256 over every processed event ``(time bits, priority, sequence,
#: type name)`` of the saturated E5 cell (``run_flow``, flow 1.0, 40
#: cars, seed 7) per policy, with the event count, as recorded before
#: the kernel's shared event loop and the vehicles' rest ticks.
EVENT_SEQUENCE_PINS = {
    "vt-im": ("7d696ec4b73b260bdba7dccf708d8cf97baf0af101bfd59bd491dbb1b02226b3", 46089),
    "crossroads": ("c56b4bf3d265d3055daaa795e6c27c566efeaf6c612c089090c03576b81c71b0", 15606),
    "aim": ("35467581386c5d574cf2c5749df84dd54923565be85f085f50f2b76a993d2611", 51566),
}


class TestEventSequencePin:
    @pytest.mark.parametrize("policy", sorted(EVENT_SEQUENCE_PINS))
    def test_saturated_cell_processes_the_pinned_events(self, policy, monkeypatch):
        import hashlib
        import heapq
        import struct

        import repro.des.core as core
        from repro.sim.flowsweep import run_flow

        digest, count = hashlib.sha256(), [0]

        def heappop(queue):
            time, priority, eid, event = item = heapq.heappop(queue)
            digest.update(struct.pack("<dqq", time, priority, eid)
                          + type(event).__name__.encode() + b"\n")
            count[0] += 1
            return item

        monkeypatch.setattr(core, "heappop", heappop)
        result = run_flow(policy, 1.0, n_cars=40, seed=7).result
        assert (digest.hexdigest(), count[0]) == EVENT_SEQUENCE_PINS[policy]
        assert result.perf["count.des_events"] == count[0]
