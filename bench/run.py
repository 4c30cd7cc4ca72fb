"""Seeded end-to-end benchmark of landmark-emotion, with a traced per-layer mode.

Run from the repository root:

    python3 bench/run.py --workload gb_shape --seed 7 --seconds 15 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and passes their output through.

The run repeats closed-loop cycles, each starting when the previous one
ends, until ``--seconds`` have passed and at least three cycles ran.  A
cycle sets the workload up, repeatedly for at least half a second (the
median set-up time is ``setup_s``), and runs one pass.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the fingerprints, check results and machine
information.  Work files live under ``.bench_work/`` and are removed at
exit; traced spans are written to ``.bench_out/``.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy loads so every run uses the same count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 3
# a 0.2 s set-up is too short to time steadily, so each cycle repeats it
SETUP_MIN_S = 0.5
WORKLOAD_NAMES = ("gb_shape", "svm_grid", "texture")


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "limits": "shared machine: other tenants' load is not controlled; "
        "no file-cache dropping, CPU pinning or frequency control",
    }


def tree_sha256(root: Path) -> str:
    """sha256 over the relative path and bytes of every input file under root.

    Config files are left out: they name the set-up's own directory.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix != ".cfg"):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_cycles(workload, work: Path, seed: int, tracer, seconds: float, trace: bool) -> dict:
    """Closed loop of set-up then pass until ``seconds`` have passed.

    Each cycle sets the workload up into fresh directories, again until
    SETUP_MIN_S have passed, and runs one pass on the last set-up.  So the
    set-ups, like the passes, sample the whole run rather than its first
    seconds.  Every set-up must write byte-identical inputs.  In trace mode
    set-ups and odd-numbered passes are traced.
    """
    out = {"setup_times": [], "setup_ids": [], "problems": [], "inputs": set(), "passes": []}
    start = time.perf_counter()
    while len(out["passes"]) < MIN_PASSES or time.perf_counter() - start < seconds:
        index = len(out["passes"])
        cycle_start = time.perf_counter()
        while True:
            tracer.pass_id = f"setup{len(out['setup_ids'])}"
            out["setup_ids"].append(tracer.pass_id)
            target = work / tracer.pass_id
            tracer.active = trace
            t0 = time.perf_counter()
            target.mkdir(parents=True)
            state = workload.setup(target, seed, tracer)
            out["setup_times"].append(time.perf_counter() - t0)
            tracer.active = False
            hits = sum(1 for _, hit in tracer.take_observed().get("smo", []) if hit)
            if hits:
                out["problems"].append(f"{tracer.pass_id}: {hits} smo_solve calls stopped at max_iter")
            out["inputs"].add(tree_sha256(target))
            if time.perf_counter() - cycle_start >= SETUP_MIN_S:
                break
            shutil.rmtree(target)

        traced = trace and index % 2 == 1
        tracer.pass_id = f"pass{index}"
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            result, error = workload.run_pass(state, tracer), None
        except Exception as exc:  # a failed pass is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - t0
        tracer.active = False
        out["passes"].append(
            {"id": tracer.pass_id, "traced": traced, "duration": duration, "result": result,
             "error": error, "observed": tracer.take_observed()}
        )
        shutil.rmtree(target)
        if len(out["passes"]) == MIN_PASSES:
            # after a fixed number of cycles, so that a faster machine,
            # which fits more cycles into the run, does not read larger
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(out["inputs"]) > 1:
        out["problems"].append("set-ups wrote different inputs for the same seed")
    return out


def check_repeats(passes: list[dict]) -> None:
    """Mark passes whose outputs differ from the first good pass's bytes."""
    reference = None
    for p in passes:
        result = p["result"]
        if result is None or result.problems:
            continue
        if reference is None:
            reference = result
            continue
        for name, text in result.outputs.items():
            if text != reference.outputs[name]:
                result.problems.append(f"{name} differs from the first pass")
        if result.details != reference.details:
            result.problems.append("fingerprint details differ from the first pass")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(command).returncode
        if code != 0:
            return code
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "landmark_emotion" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from spans import Tracer, install_wrappers, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    install_wrappers(tracer)
    try:
        run = run_cycles(workload, work, args.seed, tracer, args.seconds, bool(args.trace))
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    passes = run["passes"]
    check_repeats(passes)
    good = [p for p in passes if p["result"] is not None and not p["result"].problems]
    failed = len(passes) - len(good)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "failed_share": failed / len(passes),
        "pass_seconds": [round(p["duration"], 4) for p in passes],
        "problems": run["problems"]
        + [f"{p['id']}: {p['error']}" for p in passes if p["error"]]
        + [f"{p['id']}: {x}" for p in passes if p["result"] is not None for x in p["result"].problems],
        "inputs_sha256": sorted(run["inputs"]),
        "fingerprints": good[0]["result"].fingerprints() if good else {},
        "machine": machine_info(),
    }

    if not good:
        metrics = {}
    elif args.trace:
        traced = [(p["id"], p["duration"], p["observed"]) for p in good if p["traced"]]
        untraced = [p["duration"] for p in good if not p["traced"]]
        metrics = layer_metrics(tracer, traced, untraced, run["setup_ids"]) if traced and untraced else {}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans = [asdict(span) for span in tracer.spans]
        spans_path.write_text(json.dumps({"info": info, "spans": spans}), encoding="utf-8")
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        results = [p["result"] for p in good]
        metrics = {
            "setup_s": statistics.median(run["setup_times"]),
            "train_s": statistics.median(r.train_s for r in results),
            "eval_samples_per_s": statistics.median(r.samples / r.eval_s for r in results),
            "test_accuracy": statistics.median(r.correct / r.samples for r in results),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    units = load_units()
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": bool(metrics) and failed == 0 and not run["problems"],
                "attempted": len(passes),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def load_units() -> dict[str, str]:
    """Metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
