"""Unit tests for simulation resources and stores."""

import pytest

from repro.sim import Environment, FilterStore, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(env, res, name, hold):
        req = res.request()
        yield req
        log.append(("acq", name, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("rel", name, env.now))

    env.process(user(env, res, "a", 5))
    env.process(user(env, res, "b", 5))
    env.process(user(env, res, "c", 5))
    env.run()
    # a and b acquire at t=0; c must wait until one releases at t=5.
    assert ("acq", "a", 0) in log and ("acq", "b", 0) in log
    assert ("acq", "c", 5) in log


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in "abcde":
        env.process(user(env, res, name))
    env.run()
    assert order == list("abcde")


def test_resource_release_via_context_manager():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert res.count == 0
    assert res.queue_len == 0


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)
    got_it = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        yield env.timeout(2)
        if not req.triggered:
            req.cancel()
            got_it.append("gave up")

    def patient(env):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            got_it.append(("acquired", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert "gave up" in got_it
    # patient gets it as soon as holder releases (t=10), not blocked by
    # the cancelled impatient request.
    assert ("acquired", 10) in got_it


def test_resource_count_and_queue_len():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            assert res.count == 1
            yield env.timeout(5)

    def waiter(env):
        yield env.timeout(1)
        with res.request() as req:
            yield req

    env.process(holder(env))
    env.process(waiter(env))
    env.run(until=2)
    assert res.queue_len == 1
    env.run()
    assert res.queue_len == 0


# ---------------------------------------------------------------------------
# Store / FilterStore
# ---------------------------------------------------------------------------

def test_store_fifo_semantics():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(9)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(9, "x")]


def test_store_bounded_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        yield store.put("b")
        log.append(("b in", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("b in", 5) in log


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    for i in range(4):
        store.put(i)
    env.run()
    assert len(store) == 4
    assert store.items == [0, 1, 2, 3]


def test_filterstore_matches_specific_item():
    env = Environment()
    store = FilterStore(env)
    got = []

    def consumer(env):
        item = yield store.get(filter=lambda m: m["tag"] == 7)
        got.append((env.now, item["payload"]))

    def producer(env):
        yield env.timeout(1)
        yield store.put({"tag": 3, "payload": "no"})
        yield env.timeout(1)
        yield store.put({"tag": 7, "payload": "yes"})

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(2, "yes")]
    # The non-matching item stays in the store.
    assert len(store) == 1


def test_filterstore_plain_get_takes_oldest():
    env = Environment()
    store = FilterStore(env)
    store.put("first")
    store.put("second")
    env.run()

    def consumer(env):
        item = yield store.get()
        return item

    assert env.run(until=env.process(consumer(env))) == "first"


def test_filterstore_multiple_waiters_matched_independently():
    env = Environment()
    store = FilterStore(env)
    got = {}

    def consumer(env, key):
        item = yield store.get(filter=lambda m: m[0] == key)
        got[key] = (env.now, item[1])

    def producer(env):
        yield env.timeout(1)
        yield store.put(("b", "bee"))
        yield env.timeout(1)
        yield store.put(("a", "ay"))

    env.process(consumer(env, "a"))
    env.process(consumer(env, "b"))
    env.process(producer(env))
    env.run()
    assert got == {"b": (1, "bee"), "a": (2, "ay")}
