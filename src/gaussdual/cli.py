"""Command-line interface.

Subcommands: validate, logdet, dualize, verify, z, gen, bench. Exit
codes are a stable contract: 0 success, 1 numerical or assumption
failure, 2 usage or parse error.
"""

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict

from .dual import build_dual
from .engine import (
    duality_check,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
    z_constants,
)
from .errors import (
    DimensionMismatch,
    InfeasibleStructure,
    ModelFormatError,
    NotPositiveDefinite,
)
from .generate import STRUCTURES, GenSpec, generate
from .model import validate
from .modelio import dual_to_dict, load_model, save_model, write_model

DENSE_CAP_ENV = "GAUSSDUAL_DENSE_CAP"
DEFAULT_DENSE_CAP = 4000

# Each method is a route and its elimination backend. "duality-bp" is the
# historical name of the default dual route, kept so that scripts and the
# benchmark keep working.
METHODS = {
    "duality-bp": (logdet_sigma_via_duality, "block_tridiag"),
    "duality-dense": (logdet_sigma_via_duality, "dense"),
    "direct-dense": (logdet_sigma_direct, "dense"),
    "direct-blocktri": (logdet_sigma_direct, "block_tridiag"),
}
METHOD_NAMES = tuple(METHODS)
DENSE_METHODS = {name for name, (_, method) in METHODS.items() if method == "dense"}

# Exponentiating past this overflows a double; det output is suppressed.
EXP_LIMIT = 700.0


def _dense_cap():
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ModelFormatError(
            f"{DENSE_CAP_ENV} must be an integer, got {raw!r}"
        ) from None


def _run_method(model, name):
    route, method = METHODS[name]
    return route(model, method=method)


def _emit(doc, as_json):
    """Print a report dict as indented JSON, or as text.

    Text is one ``key: value`` line per field, in field order. A list of
    more than 12 entries prints as its first three entries and its
    length, and the ``messages`` field prints as ``note:`` lines.
    """
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    for key, value in doc.items():
        if key == "messages":
            for msg in value:
                print(f"note: {msg}")
        elif isinstance(value, list) and len(value) > 12:
            head = ", ".join(repr(v) for v in value[:3])
            print(f"{key}: [{head}, ...] ({len(value)} entries)")
        else:
            print(f"{key}: {value}")


def cmd_validate(args):
    model, _ = load_model(args.model)
    report = validate(model, zero_tol=args.zero_tol)
    _emit(asdict(report), args.json)
    return 0 if report.ok else 1


def cmd_logdet(args):
    model, _ = load_model(args.model)
    if args.method in DENSE_METHODS and model.N > (cap := _dense_cap()):
        raise ValueError(f"N={model.N} exceeds dense cap {cap} ({DENSE_CAP_ENV})")
    t0 = time.perf_counter()
    logdet = _run_method(model, args.method)
    wall_ms = (time.perf_counter() - t0) * 1e3
    det = math.exp(logdet) if abs(logdet) < EXP_LIMIT else None
    if args.json:
        _emit(
            {
                "method": args.method,
                "logdet": logdet,
                "det": det,
                "n": model.N,
                "wall_ms": wall_ms,
            },
            True,
        )
    else:
        print(f"method: {args.method}")
        print(f"logdet(Sigma): {logdet!r}")
        if det is None:
            print("det(Sigma): out of double range")
        else:
            print(f"det(Sigma): {det!r}")
        print(f"n: {model.N}")
        print(f"wall_ms: {wall_ms:.3f}")
    return 0


def cmd_dualize(args):
    model, _ = load_model(args.model)
    doc = dual_to_dict(build_dual(model))
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args):
    model, _ = load_model(args.model)
    check = duality_check(model, tol=args.tol)
    if args.json:
        _emit(asdict(check), True)
    else:
        status = "PASS" if check.ok else "FAIL"
        print(f"{status} residual={check.residual!r} tol={check.tol:g}")
        for msg in check.messages:
            print(f"note: {msg}")
    return 0 if check.ok else 1


def cmd_z(args):
    model, _ = load_model(args.model)
    _emit(asdict(z_constants(model)), args.json)
    return 0


def cmd_gen(args):
    spec = GenSpec(
        k=args.k,
        L=args.L,
        seed=args.seed,
        structure=args.structure,
        weight_range=(args.weight_range[0], args.weight_range[1]),
    )
    model = generate(spec)
    metadata = {
        "name": args.name or f"{args.structure}-k{args.k}-L{args.L}",
        "seed": args.seed,
    }
    if args.out:
        save_model(args.out, model, metadata)
    else:
        write_model(sys.stdout, model, metadata)
    return 0


def cmd_bench(args):
    cap = _dense_cap()
    schedule = [int(part) for part in args.l_schedule.split(",") if part]
    methods = [part.strip() for part in args.methods.split(",") if part.strip()]
    for name in methods:
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown method {name!r}")

    if args.csv:
        fh = open(args.csv, "w", newline="")
    else:
        fh = sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["k", "L", "N", "method", "logdet", "wall_ms", "seed", "error"])
    try:
        for idx, L in enumerate(schedule):
            seed = args.seed + idx
            model = generate(
                GenSpec(k=args.k, L=L, seed=seed, structure=args.structure)
            )
            n = model.N
            for name in methods:
                logdet = wall = error = ""
                if name in DENSE_METHODS and n > cap:
                    error = f"skipped: N={n} exceeds dense cap {cap}"
                else:
                    try:
                        walls = []
                        for _ in range(max(1, args.repeats)):
                            t0 = time.perf_counter()
                            value = _run_method(model, name)
                            walls.append((time.perf_counter() - t0) * 1e3)
                        logdet = repr(value)
                        wall = f"{statistics.median(walls):.3f}"
                    except NotPositiveDefinite as exc:
                        error = str(exc)
                writer.writerow([args.k, L, n, name, logdet, wall, seed, error])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussdual",
        description=(
            "Exact log-determinants and partition functions for Gaussian "
            "ladder models, directly or through the dual factor graph."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model assumptions")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--zero-tol", type=float, default=0.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("logdet", help="compute logdet(Sigma)")
    p.add_argument("model")
    p.add_argument("--method", choices=METHOD_NAMES, default="duality-bp")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_logdet)

    p = sub.add_parser("dualize", help="dump the dual model as JSON")
    p.add_argument("model")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("verify", help="cross-check primal and dual Z")
    p.add_argument("model")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("z", help="report normalization constants")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_z)

    p = sub.add_parser("gen", help="generate a random model")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", dest="L", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--structure", choices=STRUCTURES, default="star_pattern")
    p.add_argument(
        "--weight-range",
        type=float,
        nargs=2,
        default=(0.2, 1.0),
        metavar=("LO", "HI"),
    )
    p.add_argument("--name")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time methods over an L schedule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--l-schedule", required=True, help="comma-separated L values"
    )
    p.add_argument("--structure", choices=STRUCTURES, default="star_pattern")
    p.add_argument(
        "--methods",
        default="duality-bp,direct-blocktri",
        help="comma-separated method names",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--csv", help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotPositiveDefinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ModelFormatError,
        DimensionMismatch,
        InfeasibleStructure,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
