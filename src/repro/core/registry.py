"""Pluggable policy registry.

A *policy* couples an IM factory with a vehicle agent class under a
canonical name.  The built-ins (``vt-im``, ``crossroads`` and ``aim``)
are registered by :mod:`repro.core.policy` at import time, which this
module runs on its first use; plugins register theirs with
:func:`register_policy` (or the :func:`policy` decorator) and from
then on work everywhere the built-ins do —
:class:`~repro.sim.world.World`, the flow-sweep engine, the parallel
runner and the CLI all resolve policies exclusively through this
module.

Worker-process resolution
-------------------------
A :class:`~repro.sim.parallel.RunTask` must stay picklable, so it
carries the policy *name*, not the spec.  A forked worker inherits this
registry and resolves plain names directly; a spawned worker (or one
that simply never imported the plugin module) would not — so every spec
records the module that registered it (``provider``) and
:func:`portable_name` returns the qualified ``"module:name"`` form.
:func:`resolve_policy` imports the module half of a qualified name
before looking the policy up, which re-runs the plugin's registration
in the worker.  See ``examples/custom_policy.py``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "PolicySpec",
    "available_policies",
    "extension_policies",
    "iter_policies",
    "normalize_policy",
    "policy",
    "portable_name",
    "register_policy",
    "registry_generation",
    "resolve_policy",
    "unregister_policy",
]


@dataclass(frozen=True)
class PolicySpec:
    """Everything the runner stack needs to know about one policy.

    Attributes
    ----------
    name:
        Canonical policy name (lower-case, dash-separated).
    im_builder:
        Callable ``(env, radio, geometry, conflicts=None, config=None,
        compute=None, aim_config=None)`` returning an attached
        :class:`~repro.core.base.BaseIM`; invoked by
        :func:`repro.core.policy.make_im` after it attaches the radio
        and (when ``needs_conflicts``) builds the conflict table.
    vehicle_cls:
        Vehicle agent class (a :class:`~repro.vehicle.agent.BaseVehicle`
        subclass) implementing the policy's request phase.
    aliases:
        Alternative names accepted by :func:`normalize_policy`.
    extension:
        True for policies beyond the paper's canonical three.
    description:
        One-line summary shown by ``python -m repro policies``.
    provider:
        Dotted module path that registers this policy when imported;
        lets worker processes re-resolve it by qualified name.
    needs_conflicts:
        True when the IM builder wants a
        :class:`~repro.geometry.conflicts.ConflictTable` (the VT-style
        schedulers); tile-based policies compute their own occupancy.
    """

    name: str
    im_builder: Callable
    vehicle_cls: type
    aliases: Tuple[str, ...] = ()
    extension: bool = False
    description: str = ""
    provider: str = ""
    needs_conflicts: bool = True

    @property
    def im_name(self) -> str:
        """Best-effort display name of the IM class/builder."""
        builder = self.im_builder
        return getattr(builder, "__name__", type(builder).__name__)

    @property
    def doc(self) -> str:
        """Description, falling back to the builder's first doc line."""
        if self.description:
            return self.description
        doc = self.im_builder.__doc__ or self.vehicle_cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


#: Canonical name -> spec, in registration order.
_REGISTRY: Dict[str, PolicySpec] = {}
#: Alias (including the canonical name itself) -> canonical name.
_ALIASES: Dict[str, str] = {}
#: Bumped on every successful register/unregister.  Consumers that
#: snapshot the registry across a process boundary (the persistent
#: worker pool forks it at spawn) compare generations to know when
#: their snapshot went stale.
_GENERATION = 0


def registry_generation() -> int:
    """Monotonic counter of registry mutations (see ``_GENERATION``)."""
    return _GENERATION


def _canonical_key(name: str) -> str:
    return name.lower().replace("_", "-").strip()


def _register_builtins() -> None:
    """Register the built-ins, which register on import of
    :mod:`repro.core.policy`: lookups then do not depend on whether the
    caller imported it, and plugins always register after them."""
    importlib.import_module("repro.core.policy")


def register_policy(
    name: str,
    im_builder: Callable,
    vehicle_cls: type,
    *,
    aliases: Tuple[str, ...] = (),
    extension: bool = False,
    description: str = "",
    provider: str = "",
    needs_conflicts: bool = True,
    replace: bool = False,
) -> PolicySpec:
    """Register a policy; returns the stored :class:`PolicySpec`.

    Re-registering the *same* name is an error unless ``replace=True``
    — except when the spec is identical in provider, which makes plugin
    modules idempotent under re-import (the worker-process path).
    """
    _register_builtins()
    key = _canonical_key(name)
    spec = PolicySpec(
        name=key,
        im_builder=im_builder,
        vehicle_cls=vehicle_cls,
        aliases=tuple(_canonical_key(a) for a in aliases),
        extension=extension,
        description=description,
        provider=provider,
        needs_conflicts=needs_conflicts,
    )
    existing = _REGISTRY.get(key)
    if existing is not None and not replace:
        if existing.provider and existing.provider == spec.provider:
            return existing  # idempotent re-import of the same provider
        raise ValueError(f"policy {key!r} is already registered")
    # Validate every alias before mutating anything, so a rejected
    # registration leaves the registry exactly as it was.
    for alias in (key,) + spec.aliases:
        owner = _ALIASES.get(alias)
        if owner is not None and owner != key and not replace:
            raise ValueError(f"alias {alias!r} already maps to policy {owner!r}")
    for alias in (key,) + spec.aliases:
        _ALIASES[alias] = key
    _REGISTRY[key] = spec
    global _GENERATION
    _GENERATION += 1
    return spec


def policy(name: str, *, vehicle_cls: type, **kwargs) -> Callable:
    """Decorator form of :func:`register_policy` for IM builders::

        @policy("metered-crossroads", vehicle_cls=CrossroadsVehicle,
                provider=__name__, extension=True)
        def build_metered_im(env, channel, geometry, **kw):
            ...
    """

    def _decorate(im_builder: Callable) -> Callable:
        register_policy(name, im_builder, vehicle_cls, **kwargs)
        return im_builder

    return _decorate


def unregister_policy(name: str) -> None:
    """Remove a policy and its aliases (tests and plugin teardown)."""
    key = _canonical_key(name)
    spec = _REGISTRY.pop(key, None)
    if spec is None:
        return
    for alias in (key,) + spec.aliases:
        if _ALIASES.get(alias) == key:
            del _ALIASES[alias]
    global _GENERATION
    _GENERATION += 1


def _known_names() -> Tuple[str, ...]:
    return available_policies() + extension_policies()


def normalize_policy(name: str) -> str:
    """Map aliases ("VTIM", "qb-im", ...) to canonical names.

    Qualified ``"module:name"`` forms import ``module`` first, so the
    plugin's registration runs before the lookup (this is how worker
    processes resolve plugin policies; see :func:`portable_name`).
    """
    key = _canonical_key(name)
    if ":" in key:
        module_name, _, key = name.partition(":")
        importlib.import_module(module_name.strip())
        key = _canonical_key(key)
    if key not in _ALIASES:
        _register_builtins()
    if key not in _ALIASES:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {_known_names()}"
        )
    return _ALIASES[key]


def resolve_policy(name) -> PolicySpec:
    """Resolve a name, alias, qualified name or spec to a spec."""
    if isinstance(name, PolicySpec):
        return name
    return _REGISTRY[normalize_policy(name)]


def portable_name(name) -> str:
    """Name that resolves in a fresh process: ``"provider:name"``.

    Built-ins resolve anywhere by plain name; plugin policies are
    qualified with their provider module so that a worker that never
    imported the plugin can.  Falls back to the plain name when the
    spec recorded no provider (then only fork-inherited registries can
    resolve it — register with ``provider=__name__`` to be safe).
    """
    spec = resolve_policy(name)
    if spec.provider and spec.provider != "repro.core.policy":
        return f"{spec.provider}:{spec.name}"
    return spec.name


def iter_policies() -> Tuple[PolicySpec, ...]:
    """All registered specs, in registration order."""
    _register_builtins()
    return tuple(_REGISTRY.values())


def available_policies() -> Tuple[str, ...]:
    """Canonical names of the non-extension policies."""
    _register_builtins()
    return tuple(s.name for s in _REGISTRY.values() if not s.extension)


def extension_policies() -> Tuple[str, ...]:
    """Canonical names of the extension policies."""
    _register_builtins()
    return tuple(s.name for s in _REGISTRY.values() if s.extension)
