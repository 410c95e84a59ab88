"""Discrete-event simulation kernel.

A small, dependency-free, ``simpy``-like engine.  Agents are Python
generators ("processes") that yield :class:`Event` objects; the
:class:`Environment` advances a virtual clock and resumes processes when
the events they wait on are triggered.

Every protocol element in this reproduction — vehicles, radios, the
intersection manager, clock synchronisation — runs on this kernel, so
simulated time is exact and deterministic.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> def pinger(env, log):
...     for _ in range(3):
...         yield env.timeout(1.0)
...         log.append(env.now)
>>> log = []
>>> _ = env.process(pinger(env, log))
>>> env.run()
>>> log
[1.0, 2.0, 3.0]
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.des.core": (
        "AnyOf", "Environment", "Event", "Process", "SimulationError",
        "Timeout",
    ),
    "repro.des.resources": ("Store",),
})
