"""The repository benchmark's traced entry points still exist.

``perfbench/layers.py`` wraps methods through ``owner.__dict__[name]``, so a
refactor that moves a wrapped method into a base class (or renames it)
breaks the traced benchmark.  Installing and uninstalling the hooks here
makes that a tier-1 failure instead.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    from repro.core.async_engine import AsyncEventStream

    originals = {name: AsyncEventStream.__dict__[name] for name in ("_enqueue", "resume")}
    tracer = Tracer(max_spans=16)
    try:
        layers.install(tracer)
        assert all(
            AsyncEventStream.__dict__[name] is not original
            for name, original in originals.items()
        )
    finally:
        tracer.uninstall()
    assert all(
        AsyncEventStream.__dict__[name] is original
        for name, original in originals.items()
    )
