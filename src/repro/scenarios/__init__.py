"""Declarative scenarios, adversarial behaviours and the safety fuzzer.

The layer every workload should eventually spawn from: a
:class:`ScenarioSpec` describes spawn distributions, scripted
per-vehicle misbehaviour, fault regimes and oracle expectations as
pure data (JSON round-trip, no parser); :func:`run_spec` compiles and
runs it with the :class:`SafetyOracle` attached; :func:`fuzz` samples
the DSL, shrinks failures and persists minimal reproducers into the
checked-in ``scenarios/`` library.

A null scenario is bit-identical to the equivalent direct
``run_scenario`` call — the DSL adds vocabulary, never noise.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.scenarios.behaviours": ("BEHAVIOURS", "install"),
    "repro.scenarios.fuzz": (
        "FuzzReport", "fuzz", "is_benign", "property_failures", "random_spec",
        "shrink",
    ),
    "repro.scenarios.library": (
        "load_library", "random_fault_spec", "red_light_runner_spec",
        "scale_model_specs",
    ),
    "repro.scenarios.oracle": ("SafetyOracle", "VIOLATION_KINDS", "Violation"),
    "repro.scenarios.runner": (
        "ScenarioResult", "attach_oracles", "build_world", "run_spec",
        "run_spec_replicated",
    ),
    "repro.scenarios.spec": (
        "BEHAVIOUR_KINDS", "BehaviourSpec", "ScenarioSpec", "SpawnSpec",
        "TrafficSpec", "fault_config_from_dict", "fault_config_to_dict",
    ),
})
