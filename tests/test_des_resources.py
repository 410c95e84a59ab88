"""Unit tests for the DES store."""

import pytest

from repro.des import Environment, SimulationError, Store


class TestStore:
    def test_put_then_get_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            for i in range(3):
                yield env.timeout(1.0)
                store.put_nowait(i)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                got.append((env.now, item))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env, store):
            yield env.timeout(5.0)
            store.put_nowait("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [(5.0, "late")]

    def test_get_nowait_empty_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env).get_nowait()

    def test_len_and_items(self):
        env = Environment()
        store = Store(env)
        store.put_nowait(1)
        store.put_nowait(2)
        assert len(store) == 2
        assert store.items == [1, 2]

    def test_cancel_get_prevents_item_theft(self):
        env = Environment()
        store = Store(env)
        # First getter is abandoned (like a timed-out receive).
        abandoned = store.get()
        store.cancel_get(abandoned)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append(item)

        env.process(consumer(env, store))
        store.put_nowait("message")
        env.run()
        assert got == ["message"]
        assert not abandoned.triggered

    def test_cancel_satisfied_get_is_noop(self):
        env = Environment()
        store = Store(env)
        store.put_nowait("x")
        get = store.get()
        assert get.triggered
        store.cancel_get(get)  # must not raise
