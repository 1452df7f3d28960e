"""The benchmark's tracer wraps library callables by name; every name it
targets must exist, and uninstalling must put the originals back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def _library_callables():
    return {
        (module.__name__, key): value
        for module in tracing.MODULES
        for key, value in vars(module).items()
        if callable(value)
    }


def _class_targets():
    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, *_ in tracing.TARGETS
        if isinstance(owner, type)
    }


def test_tracer_installs_and_restores_every_target():
    before = _library_callables()
    methods = _class_targets()
    tracer = tracing.Tracer()
    tracer.install()  # a renamed or deleted target raises KeyError here
    try:
        assert _library_callables() != before
    finally:
        tracer.uninstall()
    assert _library_callables() == before
    assert _class_targets() == methods
