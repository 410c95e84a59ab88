"""Command-line interface: ``python -m repro <command>``.

Commands mirror the examples and benchmarks:

* ``run`` — one scenario/flow under one policy, per-vehicle table;
* ``sweep`` — the Fig 7.2 policy-by-flow grid (micro or analytic engine);
* ``scenarios`` — the Fig 7.1 ten-scenario comparison;
* ``buffer`` — the Ch 3 safety-buffer estimation experiment;
* ``info`` — version, policies and testbed constants.
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.cli.main": ("build_parser", "main"),
})
