"""Built-in policy registrations and the IM factory.

The three canonical policies (``vt-im``, ``crossroads``, ``aim``) are
registered with :mod:`repro.core.registry` when this module is
imported; everything downstream (:class:`~repro.sim.world.World`, the
sweep engines, the CLI) resolves policies through the registry, so a
plugin registered the same way is runnable end-to-end without touching
this module.

:func:`make_im` wires up a manager of the requested policy on a
channel: it attaches the IM radio, builds the policy's conflict table
when the spec asks for one, and hands off to the spec's IM builder.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aim import AimConfig, AimIM
from repro.core.base import BaseIM, IMConfig
from repro.core.compute import ComputeModel
from repro.core.crossroads import CrossroadsIM
from repro.core.registry import normalize_policy, register_policy, resolve_policy
from repro.core.scheduler import ConflictScheduler
from repro.core.vtim import VtimIM
from repro.des import Environment
from repro.geometry.conflicts import ConflictTable
from repro.geometry.layout import IntersectionGeometry
from repro.network.channel import Channel
from repro.vehicle.policies import AimVehicle, CrossroadsVehicle, VtimVehicle

__all__ = ["make_im", "normalize_policy"]


def _scheduler_builder(im_cls):
    """IM builder for the conflict-scheduler (VT-style) policies."""

    def build(
        env: Environment,
        radio,
        geometry: IntersectionGeometry,
        conflicts: Optional[ConflictTable] = None,
        config: Optional[IMConfig] = None,
        compute: Optional[ComputeModel] = None,
        aim_config: Optional[AimConfig] = None,
    ) -> BaseIM:
        scheduler = ConflictScheduler(conflicts, v_min=config.v_min)
        return im_cls(env, radio, scheduler, config=config, compute=compute)

    build.__name__ = im_cls.__name__
    build.__doc__ = im_cls.__doc__
    return build


def _build_aim(
    env: Environment,
    radio,
    geometry: IntersectionGeometry,
    conflicts: Optional[ConflictTable] = None,
    config: Optional[IMConfig] = None,
    compute: Optional[ComputeModel] = None,
    aim_config: Optional[AimConfig] = None,
) -> BaseIM:
    return AimIM(
        env, radio, geometry, config=config, aim_config=aim_config, compute=compute
    )


_build_aim.__name__ = AimIM.__name__
_build_aim.__doc__ = AimIM.__doc__


register_policy(
    "vt-im",
    _scheduler_builder(VtimIM),
    VtimVehicle,
    aliases=("vtim",),
    description="Velocity-tagged IM (Algorithm 2): WC-RTD safety buffer.",
    provider=__name__,
)
register_policy(
    "crossroads",
    _scheduler_builder(CrossroadsIM),
    CrossroadsVehicle,
    aliases=("xroads",),
    description="Time-sensitive Crossroads (Algorithm 8): TE/ToA-stamped plans.",
    provider=__name__,
)
register_policy(
    "aim",
    _build_aim,
    AimVehicle,
    aliases=("qb-im", "qbim"),
    description="Query-based AIM (Algorithm 6): space-time tile reservations.",
    provider=__name__,
    needs_conflicts=False,
)


def make_im(
    policy: str,
    env: Environment,
    channel: Channel,
    geometry: IntersectionGeometry,
    conflicts: Optional[ConflictTable] = None,
    config: Optional[IMConfig] = None,
    compute: Optional[ComputeModel] = None,
    aim_config: Optional[AimConfig] = None,
) -> BaseIM:
    """Create and attach an intersection manager.

    ``policy`` may be any registered name, alias, qualified
    ``"module:name"`` or :class:`~repro.core.registry.PolicySpec`.
    ``conflicts`` is only needed for the conflict-scheduler policies
    and is computed from the geometry when omitted.
    """
    spec = resolve_policy(policy)
    config = config if config is not None else IMConfig()
    radio = channel.attach(config.address)
    if spec.needs_conflicts and conflicts is None:
        conflicts = ConflictTable(geometry)
    return spec.im_builder(
        env,
        radio,
        geometry,
        conflicts=conflicts,
        config=config,
        compute=compute,
        aim_config=aim_config,
    )
