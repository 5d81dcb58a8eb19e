"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload long_ladder --seed 1 --seconds 25 --trace 0

The package is imported from ./src of the same checkout. Human-readable
report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
writes the spans to .perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# One caller, so one BLAS thread: the loop has nothing to run beside it.
BLAS_THREADS = "1"


def _percentile_note(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    note = f"n={n}"
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        note += f" p{p}={ordered[math.ceil(p / 100 * n) - 1]:.6g}"
    return note


def report_lines(result):
    env = result.env
    yield "env " + json.dumps(env, sort_keys=True)
    yield (
        f"rounds={result.rounds} attempted={result.attempted} "
        f"failed={result.failed} failed_frac={result.failed_frac:.6g} ratio"
    )
    for name, (value, unit) in result.metrics.items():
        samples = result.samples.get(name)
        note = f"  median of {_percentile_note(samples)}" if samples else ""
        yield f"{name} = {value:.6g} {unit}{note}"
    if "trace.dual_overhead_s" in result.metrics:
        for route, engine_call in (
            ("dual", "logdet_sigma_via_duality"),
            ("direct", "logdet_sigma_direct"),
        ):
            left = result.metrics[f"engine.{engine_call}_self_s"][0]
            overhead = result.metrics[f"trace.{route}_overhead_s"][0]
            yield (
                f"{route} route: the layer spans leave {left:.3g} s of the "
                f"untraced median unaccounted; tracing overhead {overhead:.3g} s"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import gaussdual
    except ImportError as exc:
        print(f"error: cannot import gaussdual from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(gaussdual.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gaussdual was not imported from {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    if args.workload not in bench.WORKLOADS:
        names = ", ".join(bench.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    result = bench.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        str(OUT_DIR / f"work-{os.getpid()}"),
        trace_path=str(OUT_DIR / f"trace-{args.workload}-{args.seed}.json"),
    )
    for line in result.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for line in report_lines(result):
        print(line)
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
