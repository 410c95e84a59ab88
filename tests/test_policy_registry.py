"""The policy registry: resolution, aliases, plugins, parallel workers.

The headline regression here is the one the registry was built to fix:
a *custom* policy registered by user code used to be invisible to the
parallel sweep engine (``run_flow_sweep(jobs=2)``), because worker
processes resolved policies against a static dict baked into
``repro.core.policy``.  Now tasks carry registry names — qualified with
the registering module for plugins — and a worker resolves them through
the same registry the parent used.
"""

import pytest

from repro.core import CrossroadsIM, IMConfig
from repro.core.registry import (
    PolicySpec,
    available_policies,
    extension_policies,
    iter_policies,
    normalize_policy,
    policy,
    portable_name,
    register_policy,
    resolve_policy,
    unregister_policy,
)
from repro.core.scheduler import ConflictScheduler
from repro.sim.flowsweep import run_flow, run_flow_sweep
from repro.vehicle import CrossroadsVehicle, VtimVehicle


def _build_toy_im(env, radio, geometry, conflicts=None, config=None,
                  compute=None, aim_config=None):
    """A stock Crossroads IM under a toy plugin name."""
    scheduler = ConflictScheduler(conflicts, v_min=config.v_min)
    return CrossroadsIM(env, radio, scheduler, config=config, compute=compute)


@pytest.fixture
def toy_policy():
    """Register a toy plugin policy for the duration of one test."""
    spec = register_policy(
        "toy-crossroads",
        _build_toy_im,
        CrossroadsVehicle,
        aliases=("toy",),
        extension=True,
        description="Stock Crossroads under a plugin name (test fixture).",
        provider=__name__,
    )
    yield spec
    unregister_policy("toy-crossroads")


class TestRegistry:
    def test_builtins_registered(self, toy_policy):
        assert available_policies() == ("vt-im", "crossroads", "aim")
        assert "toy-crossroads" in extension_policies()
        names = [spec.name for spec in iter_policies()]
        assert names[:3] == ["vt-im", "crossroads", "aim"]

    def test_alias_resolution(self, toy_policy):
        assert normalize_policy("VTIM") == "vt-im"
        assert normalize_policy("qb-im") == "aim"
        assert normalize_policy("Toy_Crossroads") == "toy-crossroads"
        with pytest.raises(ValueError):
            normalize_policy("nonsense")

    def test_resolve_accepts_spec_and_alias(self, toy_policy):
        assert resolve_policy(toy_policy) is toy_policy
        assert resolve_policy("toy") is toy_policy
        assert resolve_policy("TOY-crossroads") is toy_policy

    def test_duplicate_name_rejected(self, toy_policy):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(
                "toy-crossroads", _build_toy_im, CrossroadsVehicle,
                provider="somewhere.else",
            )

    def test_reimport_same_provider_is_idempotent(self, toy_policy):
        again = register_policy(
            "toy-crossroads", _build_toy_im, CrossroadsVehicle,
            aliases=("toy",), extension=True, provider=__name__,
        )
        assert again is toy_policy

    def test_alias_collision_rejected(self, toy_policy):
        with pytest.raises(ValueError, match="alias"):
            register_policy(
                "other-policy", _build_toy_im, CrossroadsVehicle,
                aliases=("toy",), provider=__name__,
            )
        unregister_policy("other-policy")  # no-op; partial state guard

    def test_portable_names(self, toy_policy):
        # Built-ins resolve anywhere by plain name; plugins qualify.
        assert portable_name("crossroads") == "crossroads"
        assert portable_name("toy") == f"{__name__}:toy-crossroads"

    def test_qualified_name_resolves(self, toy_policy):
        spec = resolve_policy(f"{__name__}:toy-crossroads")
        assert spec is toy_policy

    def test_decorator_registration(self):
        @policy("decorated-toy", vehicle_cls=VtimVehicle,
                extension=True, provider=__name__)
        def build(env, radio, geometry, conflicts=None, config=None,
                  compute=None, aim_config=None):
            scheduler = ConflictScheduler(conflicts, v_min=config.v_min)
            return CrossroadsIM(env, radio, scheduler, config=config,
                                compute=compute)

        try:
            spec = resolve_policy("decorated-toy")
            assert spec.im_builder is build
            assert spec.vehicle_cls is VtimVehicle
        finally:
            unregister_policy("decorated-toy")

    def test_spec_doc_fallback(self):
        spec = PolicySpec("x", _build_toy_im, CrossroadsVehicle)
        assert spec.doc.startswith("A stock Crossroads IM")


class TestCustomPolicyEndToEnd:
    """A registered plugin runs everywhere the built-ins do."""

    def test_runs_in_world(self, toy_policy):
        point = run_flow("toy-crossroads", 0.3, n_cars=6, seed=5)
        assert point.result.policy == "toy-crossroads"
        assert point.result.safe
        # Identical machinery to stock Crossroads => identical outcome.
        stock = run_flow("crossroads", 0.3, n_cars=6, seed=5)
        assert point.result.summary() == stock.result.summary()

    def test_parallel_sweep_resolves_custom_policy(self, toy_policy):
        """Regression: plugin policies used to crash jobs>1 sweeps."""
        flows = (0.3, 0.5)
        parallel = run_flow_sweep(
            policies=["toy-crossroads"], flow_rates=flows,
            n_cars=6, seed=5, jobs=2,
        )
        serial = run_flow_sweep(
            policies=["toy-crossroads"], flow_rates=flows,
            n_cars=6, seed=5, jobs=1,
        )
        assert set(parallel) == {"toy-crossroads"}
        par_points = parallel["toy-crossroads"]
        ser_points = serial["toy-crossroads"]
        assert [p.flow_rate for p in par_points] == list(flows)
        for par, ser in zip(par_points, ser_points):
            assert par.result.summary() == ser.result.summary()

    def test_mixed_builtin_and_plugin_sweep(self, toy_policy):
        sweep = run_flow_sweep(
            policies=["crossroads", "toy"], flow_rates=(0.4,),
            n_cars=5, seed=9, jobs=2,
        )
        assert set(sweep) == {"crossroads", "toy-crossroads"}

    def test_make_im_config_default(self, toy_policy):
        # make_im still builds a default IMConfig and conflict table.
        from repro.core import make_im
        from repro.des import Environment
        from repro.geometry import IntersectionGeometry
        from repro.network.channel import Channel

        env = Environment()
        channel = Channel(env)
        im = make_im("toy", env, channel, IntersectionGeometry())
        assert isinstance(im, CrossroadsIM)
        assert isinstance(im.config, IMConfig)
