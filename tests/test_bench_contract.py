"""The benchmark wraps library names from outside the library.

``bench/spans.install_wrappers`` looks each name up with ``getattr``, so
deleting or renaming one of them, even one that looks unused, makes every
benchmark run fail.  A pass of each workload also parses the model file and
reads the load result and model fields.  These tests read ``bench/`` and
change nothing in it.
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


def test_one_pass_of_every_workload_passes_its_checks(monkeypatch, tmp_path):
    """A pass reads the model's ``dimension:`` line, the load result and the model fields."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import workloads

    tracer = spans.Tracer()
    spans.install_wrappers(tracer)
    try:
        for name, workload in workloads.WORKLOADS.items():
            result = workload.run_pass(workload.setup(tmp_path / name, 7, tracer), tracer)
            assert result.problems == [], name
            tracer.take_observed()
    finally:
        tracer.restore()
