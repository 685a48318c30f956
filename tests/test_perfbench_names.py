"""The package names that perfbench's tracer patches must exist.

perfbench/tracing.py wraps public functions and spec classes by name, so
renaming or deleting one breaks a traced benchmark run.  This loads the
tracer from its file and installs and uninstalls it in-process.
"""

import importlib.util
import inspect
from pathlib import Path

from opsplit import calculus, cli, figures, operators, sampling, splitting, verifier

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (calculus, cli, figures, operators, sampling, splitting, verifier)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every module and operators class whose attributes the tracer may set."""
    classes = [c for _, c in inspect.getmembers(operators, inspect.isclass)
               if c.__module__ == operators.__name__]
    return {id(o): o for o in (*MODULES, *classes)}


def test_tracer_finds_every_name_and_restores_them():
    tracing = _load_tracing()
    # install() skips a calculus name it cannot find, so check those here
    assert [f for f in tracing.CALCULUS if not hasattr(calculus, f)] == []
    before = {k: dict(vars(o)) for k, o in _namespaces().items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    patched = {(id(owner), attr) for owner, attr, _ in patches}
    assert patches and len(patched) == len(patches)
    for name in tracing.SPLITTING:
        assert (id(splitting), name) in patched
    for name in tracing.VERIFIER:
        assert (id(verifier), name) in patched
    for name in tracing.FIGURES:
        assert (id(figures), name) in patched
    for kind in tracing.SPEC_KINDS:
        assert (id(cli), kind) in patched
    # the inherited resolvent of a subclass is wrapped where it is defined
    assert (id(operators.Affine), "resolvent") in patched
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
    after = {k: dict(vars(o)) for k, o in _namespaces().items()}
    assert after.keys() == before.keys()
    for k in before:
        assert after[k].keys() == before[k].keys()
        assert all(after[k][a] is v for a, v in before[k].items())
