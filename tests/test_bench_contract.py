"""The benchmark wraps library names from outside the library.

``bench/spans.install_wrappers`` looks each name up with ``getattr``, so
deleting or renaming one of them, even one that looks unused, makes every
benchmark run fail.  This test reads ``bench/`` and changes nothing in it.
"""
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_bench_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    tracer = spans.Tracer()
    try:
        spans.install_wrappers(tracer)
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
