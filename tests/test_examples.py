"""Smoke tests: the documented examples must stay runnable.

Only the fast examples run here (the sweep examples are exercised by
the benchmarks); each is imported as a module and its ``main()`` driven
with stubbed argv.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "crossroads"])
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "average wait time" in out
        assert "ground-truth safe : True" in out

    def test_quickstart_other_policies(self, capsys, monkeypatch):
        for policy in ("vt-im", "aim"):
            monkeypatch.setattr(sys, "argv", ["quickstart.py", policy])
            load_example("quickstart").main()
            assert "safe : True" in capsys.readouterr().out.replace(
                "ground-truth ", ""
            )

    def test_safety_buffer_experiment(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["safety_buffer_experiment.py"])
        load_example("safety_buffer_experiment").main()
        out = capsys.readouterr().out
        assert "measured Elong bound" in out
        assert "total VT-IM buffer" in out

    def test_corridor_demo(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["corridor_demo.py", "2", "8"])
        load_example("corridor_demo").main()
        out = capsys.readouterr().out
        assert "uniform crossroads" in out
        assert "mixed policies" in out
        assert "safe True" in out
        assert "8/8 trips complete" in out
