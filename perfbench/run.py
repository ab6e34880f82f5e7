"""dtcf benchmark: one workload per run, end-to-end metrics or a traced breakdown.

    python3 perfbench/run.py --workload train-toy-dtcf --seed 1 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the timed phase once untraced and once traced and prints
the per-layer metrics, the tracing overhead and the coverage check.
``--smoke`` shrinks every input so a run takes seconds. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and the full result go to ``.perfbench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-toy-dtcf", "extract-full-dtcf", "eval-trials")
SETUPS = 3               # set-ups per untraced run; setup_s is their median
COVERAGE_MIN = 0.9       # share of op time the traced layers must account for
P90_MIN_OPS = 100        # p90 is reported only with >= 10 samples beyond it


def pin_to_one_cpu() -> tuple[int, int]:
    """Run on one CPU with one BLAS thread; call before numpy loads.

    On the 2-vCPU virtual machine the bounds were set on, each CPU drifts
    between a fast and a slow state on its own, so the speed calibration taken
    before an op only describes the op's speed when both run on one CPU. Returns (nproc, the CPU used).
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(cpus), cpus[-1]


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(nproc: int, cpu: int, seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version(), "commit": git_commit(), "seed": seed}


def import_dtcf() -> None:
    """Import `dtcf` from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dtcf
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import dtcf from {src}: {e}")
    if Path(dtcf.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: dtcf was imported from {dtcf.__file__}, not {src}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ---------------------------------------------------------

def normalised(phase, calibration) -> tuple[list[float], float]:
    """Op times and busy time of a phase, scaled to the reference host speed.

    Each op is scaled by the calibration taken right before it; work outside
    ops (the final checkpoint, the export) by the phase's median scale.
    """
    scales = [calibration.scale([c]) for c in phase.calib_s[:len(phase.op_s)]]
    ops = [t * s for t, s in zip(phase.op_s, scales)]
    return ops, sum(ops) + (phase.busy_s - sum(phase.op_s)) * statistics.median(scales)


def end_to_end(workload, workdir: Path, seconds: float) -> tuple[dict, dict]:
    from workloads import Calibration
    calibration = Calibration(workload.calibration)
    setup_s, setup_raw, state = [], [], None
    for i in range(SETUPS):
        state = None     # the previous set-up's state is garbage, not part of this one
        gc.collect()
        before = [calibration() for _ in range(3)]
        start = time.perf_counter()
        state = workload.setup(workdir / f"setup{i}", None)
        setup_raw.append(time.perf_counter() - start)
        after = [calibration() for _ in range(3)]
        setup_s.append(setup_raw[-1] * calibration.scale(before + after))
    rss_after_setup = peak_rss_mib()
    gc.collect()
    gc.freeze()      # keep the benchmark's own objects out of the program's collections
    phase = workload.run(state, seconds, None)
    rss = peak_rss_mib()
    phase.failed += workload.check(state, phase)
    ops, busy = normalised(phase, calibration)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (phase.items / busy, "1/s"),
        "op_ms.p50": (statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    n = len(ops)
    p90 = (f"{statistics.quantiles(ops, n=10)[-1] * 1e3!r} ms" if n >= P90_MIN_OPS
           else f"n/a ({n} ops < {P90_MIN_OPS})")
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; raw {', '.join(f'{s:.3f}' for s in setup_raw)} s",
        "items_per_s": f"{workload.item}/s: {phase.items} over {busy:.3f} s; "
                       f"raw {phase.items / phase.busy_s:.4g} over {phase.busy_s:.3f} s",
        "op_ms.p50": f"over {n} ops; raw {statistics.median(phase.op_s) * 1e3:.4g} ms; "
                     f"op_ms.p90 {p90}",
        "peak_rss_mb": f"ru_maxrss; {rss_after_setup:.1f} MiB after set-up",
        "failed_ratio": f"{phase.failed / max(phase.attempted, 1)!r} ({phase.failed}/{phase.attempted})",
        "calibration": f"median {statistics.median(phase.calib_s) * 1e3:.3f} ms before ops, "
                       f"reference {calibration.reference_s * 1e3:.3f} ms; times above are "
                       f"scaled to the reference speed",
    }
    detail = {"op_s": phase.op_s, "calib_s": phase.calib_s, "setup_raw_s": setup_raw}
    return {"metrics": metrics, "notes": notes, "attempted": phase.attempted,
            "failed": phase.failed, "checks_ok": True}, detail


def traced(workload, workdir: Path, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer, instrument, summarise
    from workloads import Calibration
    calibration = Calibration(workload.calibration)

    setup_tracer = Tracer()
    with instrument(setup_tracer):
        state = workload.setup(workdir / "setup0", setup_tracer)
    base = workload.run(state, seconds, None)
    tracer = Tracer()
    with instrument(tracer):
        phase = workload.run(state, seconds, tracer)
    failed = base.failed + phase.failed + workload.check(state, base) + workload.check(state, phase)
    attempted = base.attempted + phase.attempted

    s = summarise(tracer)
    setup = summarise(setup_tracer)["outside_s"]
    ops = max(s["ops"], 1)
    counts = s["counts"]

    def ms(name, table="total_s"):
        return (1e3 * s[table].get(name, 0.0) / ops, "ms")

    saves = counts.get("checkpoint.saves", 0)
    sweeps = counts.get("metrics.sweeps", 0)
    metrics = {
        "tensor.conv2d.fwd_ms": ms("tensor.conv2d.fwd"),
        "tensor.conv2d.bwd_ms": ms("tensor.conv2d.bwd"),
        "tensor.backward.other_ms": ms("tensor.backward", "self_s"),
        "tensor.conv2d.calls": (counts.get("tensor.conv2d.calls", 0) / ops, "count"),
        "tensor.conv2d.gflop": (counts.get("tensor.conv2d.flops", 0) / ops / 1e9, "GFLOP"),
        "tensor.conv2d.im2col_mb": (counts.get("tensor.conv2d.im2col_bytes", 0) / ops / 1e6, "MB"),
        "tensor.graph_nodes": (counts.get("tensor.graph_nodes", 0) / ops, "count"),
        "layers.batchnorm.fwd_ms": ms("layers.batchnorm.fwd"),
        "layers.batchnorm.bwd_ms": ms("layers.batchnorm.bwd"),
        "attention.apply_ms": ms("attention.apply"),
        "model.stem_ms": ms("model.stem"),
        **{f"model.stage{i}_ms": ms(f"model.stage{i}") for i in range(1, 5)},
        "model.asp_ms": ms("model.asp"),
        "model.emb_ms": ms("model.emb"),
        "loss.aam_ms": ms("loss.aam"),
        "loss.ce_ms": ms("loss.ce"),
        "train.data_ms": ms("train.data"),
        "train.adam_ms": ms("train.adam"),
        "checkpoint.save_ms": ms("checkpoint.save"),
        "checkpoint.save_mb": (counts.get("checkpoint.save_bytes", 0) / saves / 1e6 if saves else 0.0, "MB"),
        "checkpoint.load_ms": (1e3 * setup.get("checkpoint.load", 0.0), "ms"),
        "audio.read_wav_ms": ms("audio.read_wav"),
        "audio.fbank_ms": ms("audio.fbank"),
        "audio.spec_augment_ms": ms("audio.spec_augment"),
        "synth.read_trials_ms": ms("synth.read_trials"),
        "synth.corpus_s": (setup.get("synth.corpus", 0.0), "s"),
        "metrics.read_embeddings_ms": ms("metrics.read_embeddings"),
        "metrics.score_trials_ms": ms("metrics.score_trials"),
        "metrics.eer_ms": ms("metrics.eer"),
        "metrics.min_dcf_ms": ms("metrics.min_dcf"),
        "metrics.write_scores_ms": ms("metrics.write_scores"),
        "metrics.export_embeddings_ms": (1e3 * s["outside_s"].get("metrics.export_embeddings", 0.0) / ops, "ms"),
        "metrics.sweep_points": (counts.get("metrics.sweep_points", 0) / sweeps if sweeps else 0.0, "count"),
        "metrics.sweep_mb": (counts.get("metrics.sweep_bytes", 0) / sweeps / 1e6 if sweeps else 0.0, "MB"),
        "trace.overhead_ms": ((statistics.median(normalised(phase, calibration)[0])
                               - statistics.median(normalised(base, calibration)[0])) * 1e3, "ms"),
        "trace.unattributed_ms": (1e3 * s["unattributed_s"] / ops, "ms"),
        "trace.coverage": (s["coverage"], "ratio"),
    }
    coverage_ok = s["coverage"] >= COVERAGE_MIN
    notes = {
        "ops": f"{s['ops']} traced ops; raw op_ms.p50 untraced {statistics.median(base.op_s) * 1e3:.3f} ms, "
               f"traced {statistics.median(phase.op_s) * 1e3:.3f} ms",
        "coverage": f"{'PASS' if coverage_ok else 'FAIL'}: layers account for "
                    f"{s['coverage']:.4f} of op time (need >= {COVERAGE_MIN})",
        "exact counts": f"{'PASS' if s['counts_repeat'] else 'FAIL'}: identical for identical inputs",
        "computed": "gflop, im2col_mb, sweep_mb and save_mb are computed from shapes, not measured",
        "failed_ratio": f"{failed / max(attempted, 1)!r} ({failed}/{attempted})",
    }
    result = {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
              "checks_ok": coverage_ok and s["counts_repeat"]}
    detail = {"summary": s, "setup": setup, "spans": tracer.spans,
              "ops": [list(op) for op in tracer.ops]}
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick self-test")
    args = p.parse_args(argv)

    nproc, cpu = pin_to_one_cpu()
    import_dtcf()
    from workloads import WORKLOADS

    env = environment(nproc, cpu, args.seed)
    out_dir = ROOT / ".perfbench_work"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    try:
        run = traced if args.trace else end_to_end
        result, detail = run(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = result["failed"] == 0 and result["checks_ok"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''} correct={correct}")
    print("env " + json.dumps(env))
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:30s} {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name:30s} {note}")
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({"env": env, "result": line, "notes": result["notes"], **detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
