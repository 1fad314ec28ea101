"""The benchmark tracer's contract with geoctrl: every name it wraps exists.

The tracer resolves its targets with `getattr` when it is installed, so
a name deleted from geoctrl would break a traced benchmark pass while
every other test stays green. These tests read its target list as it
stands and never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import geoctrl
from geoctrl.fields import VectorField

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    for target, _ in tracing.WRAPPED:
        mod_name, attr = target.split(".")
        yield importlib.import_module(f"geoctrl.{mod_name}"), attr


def test_every_wrapped_target_resolves(tracing):
    assert tracing.WRAPPED
    for module, attr in _targets(tracing):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_install_then_uninstall_puts_back_every_original(tracing):
    kernels = ("compiled", "compiled_jacobian", "__call__")
    originals = [(m, a, getattr(m, a)) for m, a in _targets(tracing)]
    originals += [(VectorField, a, getattr(VectorField, a)) for a in kernels]
    tracer = tracing.Tracer(geoctrl)
    tracer.install()
    try:
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, attr
