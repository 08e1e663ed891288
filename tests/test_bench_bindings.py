"""The benchmark's tracer wraps package functions by name where they are
bound. Installing and uninstalling it must find every such name and put every
original back, so renaming or deleting a wrapped name fails here rather than
only in a traced benchmark run."""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_bound_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    targets = [
        (module, name)
        for _, name, modules in tracing.FUNCTIONS
        for module in modules
    ] + [(cls, name) for _, cls, name in tracing.METHODS]
    originals = [(owner, name, owner.__dict__[name]) for owner, name in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, name, original in originals:
            assert owner.__dict__[name] is not original, (owner, name)
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, (owner, name)
