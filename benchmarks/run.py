"""moonnet benchmark: one workload, one seed, one timed run.

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 38 --trace 0

Run it from the root of a moonnet checkout; it imports ``src/moonnet`` from
there.  ``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the time into an untraced and a traced phase and
reports the per-layer metrics, the tracing overhead among them.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it starting with ``#`` describe the run.
"""

import os
import sys

# Pinned before NumPy loads: one thread is within every machine's core count
# and keeps the GEMMs clear of other processes' load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

SETUP_REPS = 5
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_mean", "ms"),
    ("op_ms_p90", "ms"),
    ("items_per_s", "1/s"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-small", "train-large", "eval-verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": nproc, "seed": seed,
            "commit": _commit(root), "src_sha256": _source_digest(os.path.join(root, "src"))}


def import_seconds(src: str) -> float:
    """Time to import NumPy and moonnet in a fresh interpreter, as it reports it."""
    code = ("import time; t = time.perf_counter(); import numpy, moonnet.train, moonnet.gradcheck; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(setup_s: float, res) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_mean": 1e3 * statistics.fmean(res.op_s),
        "op_ms_p90": 1e3 * percentile(res.op_s, 90),
        "items_per_s": res.items / res.item_s,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "moonnet", "__init__.py")):
        print(f"run.py: {src}/moonnet not found; run from the root of a moonnet checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, src)
    import moonnet

    import perlayer
    import workloads
    from tracer import Tracer
    if not os.path.realpath(moonnet.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"run.py: imported moonnet from {moonnet.__file__}, not {src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        import_times = [import_seconds(src) for _ in range(SETUP_REPS)]
        setup_times = []
        for _ in range(SETUP_REPS):
            t = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        wl.prepare_checks()

        if args.trace == 0:
            res = wl.run(args.seconds)
            metrics = end_to_end(setup_s, res)
            units = dict(END_TO_END)
            attempted, failed = res.attempted, res.failed
        else:
            base = wl.run(args.seconds / 2)
            tracer = Tracer()
            with tracer:
                traced = wl.run(args.seconds / 2, tracer)
            metrics = perlayer.derive(wl, tracer, base, traced)
            units = {name: unit for name, unit, _ in perlayer.PER_LAYER}
            attempted, failed = base.attempted + traced.attempted, base.failed + traced.failed

    print("# env " + json.dumps(environment(root, args.seed), sort_keys=True))
    print(f"# set-up reps (s): {', '.join(f'{t:.3f}' for t in setup_times)}; "
          f"import reps (s): {', '.join(f'{t:.3f}' for t in import_times)}")
    phases = [("untraced", base), ("traced", traced)] if args.trace else [("untraced", res)]
    for label, phase in phases:
        print(f"# {label}: {phase.rounds} {wl.op}s, {phase.items} {wl.item}, "
              f"{phase.attempted} ops attempted, {phase.failed} failed")
        for task, times in phase.tasks.items():
            print(f"#   {task}: {len(times)} calls, median {1e3 * statistics.median(times):.2f} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
