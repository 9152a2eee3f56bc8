import importlib
import importlib.util
from pathlib import Path

import susyq

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _owners():
    """The package's modules and classes: every namespace the tracer may patch."""
    modules = [susyq] + [importlib.import_module(f"susyq.{m}") for m in
                         ("cli", "design", "errors", "kummer", "oracle", "partner", "seeds", "wronskian")]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("susyq")}
    return modules + list(classes)


def test_tracer_installs_on_the_names_it_patches_and_restores_every_one():
    # perfbench's tracer replaces functions at the names their callers look them up by; a name
    # it patches that the package renamed or removed fails Tracer.install
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = _owners()
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install(susyq)
        patches = list(tracer._undo)
        assert patches
        assert all(getattr(owner, name) is not orig for owner, name, orig in patches)
    finally:
        tracer.restore()
    assert all(any(owner is o for o in owners) for owner, _, _ in patches)
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys(), owner
        assert [name for name, value in names.items() if now[name] is not value] == [], owner
