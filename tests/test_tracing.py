"""The benchmark's tracer reaches the package through attribute bindings.

perfbench/tracing.py replaces functions by name in the modules that bind
them.  A refactor that drops or renames one of those bindings would break
`perfbench/run.py --trace 1`; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_and_is_restored():
    tracing = load_tracing()
    bindings = [b for per_span in tracing.TRACED.values() for b in per_span]
    originals = [getattr(module, attr) for module, attr in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = [getattr(module, attr) for module, attr in bindings]
    finally:
        tracer.restore()
    assert all(new is not old for new, old in zip(installed, originals))
    restored = [getattr(module, attr) for module, attr in bindings]
    assert all(now is old for now, old in zip(restored, originals))


def test_pool_builder_hooks_resolve():
    # perfbench/make_pools.py counts calls by patching these two attributes.
    from waldschmidt import cone, lattice, simplex

    assert cone.pairing is lattice.pairing
    assert callable(simplex._Tableau.pivot)
