"""Shared test-suite configuration.

The ``faults_heavy`` mark gates the 200-vehicle fault-injection
acceptance demo (tests/test_fault_properties.py): it is the ISSUE 2
acceptance evidence but takes ~a minute of wall clock, so — like the
``perf`` benches — it is opt-in: select it explicitly with
``-m faults_heavy`` or force it with ``REPRO_FAULTS_HEAVY=1``.

The fast ``faults`` matrix (3 seeds x 3 policies) is *not* gated: it
runs in tier-1 and is also selectable alone with ``-m faults`` (the CI
fault-matrix job does exactly that).

The ``fuzz`` mark gates the hypothesis-driven scenario fuzzing in
tests/test_scenario_fuzz.py the same way (``-m fuzz`` or
``REPRO_FUZZ=1``): a fuzz session draws and shrinks dozens of full
simulations, which belongs in its own CI job, not tier-1.  The
scenario *library replay* suite in the same file is unmarked and runs
in tier-1 — the checked-in reproducers are cheap and deterministic.
"""

import os

import pytest

#: mark -> environment override that forces it on.
_OPT_IN_MARKS = {
    "faults_heavy": "REPRO_FAULTS_HEAVY",
    "fuzz": "REPRO_FUZZ",
}


def pytest_collection_modifyitems(config, items):
    """Keep opt-in marks opt-in (see module docstring)."""
    if config.getoption("-m"):
        return  # the user picked marks explicitly; respect them
    for mark, env in _OPT_IN_MARKS.items():
        if os.environ.get(env, "") not in ("", "0"):
            continue
        skip = pytest.mark.skip(
            reason=f"{mark} tests are opt-in: run with -m {mark} or {env}=1"
        )
        for item in items:
            # Marks only: ``item.keywords`` also holds parametrize ids,
            # so a case whose id is ``fuzz`` would be skipped too.
            if item.get_closest_marker(mark) is not None:
                item.add_marker(skip)
