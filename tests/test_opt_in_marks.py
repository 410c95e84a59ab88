"""The opt-in mark gate in ``tests/conftest.py`` reads marks only.

A parametrize id lands in ``item.keywords`` alongside the marks, so a
gate that looked there would skip a tier-1 case merely named ``fuzz``.
The check runs the suite's own conftest on a small test file in a
separate pytest session (``pytester``).
"""

from pathlib import Path

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).with_name("conftest.py")


def test_only_marked_tests_are_opt_in(pytester, monkeypatch):
    for env in ("REPRO_FUZZ", "REPRO_FAULTS_HEAVY"):
        monkeypatch.delenv(env, raising=False)
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(
        """
        import pytest

        @pytest.mark.parametrize("case", ["fuzz", "faults_heavy", "other"])
        def test_named_like_a_mark(case):
            pass

        @pytest.mark.fuzz
        def test_marked_fuzz():
            pass

        @pytest.mark.faults_heavy
        def test_marked_faults_heavy():
            pass
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(passed=3, skipped=2)
