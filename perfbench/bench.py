"""End-to-end and per-layer benchmark of gaussdual's two log-det routes.

One run builds the inputs of one workload from a seed, then calls the
package in a closed loop (one caller; each call starts when the previous
one returns) for a fixed time and checks every answer. An untraced run
gives the end-to-end metrics. A traced run repeats the calls the engine
makes, in the engine's order, with a span around each, and gives the
per-layer metrics. ``run.py`` is the command line; README.md explains the
workloads and metrics.
"""

import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import scipy

from gaussdual import cli
from gaussdual.dual import build_dual
from gaussdual.elimination import (
    block_partition,
    logdet_block_tridiagonal,
    logdet_dense,
    logdet_tree_bp,
    tree_elimination_order,
)
from gaussdual.engine import (
    duality_check,
    logdet_sigma_direct,
    logdet_sigma_via_duality,
)
from gaussdual.errors import NotAForest
from gaussdual.generate import STRUCTURES, GenSpec, generate
from gaussdual.model import (
    LadderModel,
    assemble_global_precision,
    local_logdets,
    validate,
)
from gaussdual.modelio import load_model, save_model

clock = time.perf_counter

ROUTE_RTOL = 1e-9  # two routes, or a route and the dense oracle
CLI_RTOL = 1e-12  # CLI-printed log det against the library's value
SETUP_REPEATS = 3  # and more, until SETUP_FLOOR_S is spent
SETUP_FLOOR_S = 2.0
MIN_ROUNDS = 3  # so that a median can set one slow sample aside
OP_FLOOR_S = 0.5  # per operation and round, over all inputs
FALLBACK_WARNING = "dual sparsity graph has a cycle"
# Untraced calls a traced run times next to their replicas.
REAL_CALLS = (
    "dual", "dual_half", "dual_joined", "direct", "direct_joined", "duality_check"
)

END_TO_END = (
    ("setup_s", "s"),
    ("dual_logdet_s", "s"),
    ("direct_logdet_s", "s"),
    ("verified_logdet_s", "s"),
    ("file_to_verified_s", "s"),
    ("cli_logdet_s", "s"),
    ("cli_gen_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("generate.generate_s", "s"),
    ("modelio.load_model_s", "s"),
    ("modelio.save_model_s", "s"),
    ("modelio.file_mb", "MB"),
    ("model.validate_s", "s"),
    ("model.local_logdets_s", "s"),
    ("model.assemble_global_precision_s", "s"),
    ("dual.build_dual_s", "s"),
    ("dual.n_dual", "count"),
    ("dual.nnz", "count"),
    ("elimination.tree_elimination_order_s", "s"),
    ("elimination.tree_rounds", "count"),
    ("elimination.logdet_tree_bp_s", "s"),
    ("elimination.pivot_loop_s", "s"),
    ("elimination.forest_hit_ratio", "ratio"),
    ("elimination.logdet_dense_share", "ratio"),
    ("elimination.block_partition_s", "s"),
    ("elimination.logdet_block_tridiagonal_s", "s"),
    ("elimination.block_tridiag_gflops", "GFLOP/s"),
    ("engine.dense_fallbacks", "count"),
    ("engine.logdet_sigma_via_duality_self_s", "s"),
    ("engine.logdet_sigma_direct_self_s", "s"),
    ("engine.duality_check_self_s", "s"),
    ("engine.dual_doubling_ratio", "ratio"),
    ("engine.joined_dual_ratio", "ratio"),
    ("engine.joined_direct_ratio", "ratio"),
    ("cli.logdet_self_s", "s"),
    ("cli.gen_self_s", "s"),
    ("generate.self_s", "s"),
    ("modelio.self_s", "s"),
    ("model.self_s", "s"),
    ("dual.self_s", "s"),
    ("elimination.self_s", "s"),
    ("trace.dual_overhead_s", "s"),
    ("trace.direct_overhead_s", "s"),
    ("env.nproc", "count"),
    ("env.blas_threads", "count"),
    ("env.l3_mb", "MB"),
    ("size.block_stack_mb", "MB"),
    ("size.j_mb", "MB"),
    ("size.dual_mb", "MB"),
    ("size.block_stack_l3_ratio", "ratio"),
    ("size.j_l3_ratio", "ratio"),
    ("size.dual_l3_ratio", "ratio"),
)


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Input:
    """One input model of a workload.

    ``gen`` is what `gaussdual gen` is asked to write during the run. The
    model itself is ``generate(gen)``, or, when ``cyclic`` holds
    (k, L, seed), a model with dense blocks built by `cyclic_model`.
    """

    gen: GenSpec
    cyclic: tuple = None

    def build(self):
        return cyclic_model(*self.cyclic) if self.cyclic else generate(self.gen)

    def joined(self, inputs):
        """One ladder as long as ``inputs`` together, of this input's kind."""
        return Input(replace(self.gen, L=sum(i.gen.L for i in inputs)))

    def halved(self):
        """The same input at half the ladder length (L // 2, at least 1)."""
        gen = replace(self.gen, L=max(1, self.gen.L // 2))
        if self.cyclic:
            k, L, seed = self.cyclic
            return Input(gen, (k, max(1, L // 2), seed))
        return Input(gen)


def cyclic_model(k, L, seed):
    """Ladder with dense SPD blocks A·Aᵀ + I, so its dual graph has cycles."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((L, 2 * k, 2 * k)) / math.sqrt(2 * k)
    return LadderModel(k, L, a @ np.swapaxes(a, 1, 2) + np.eye(2 * k))


def long_ladder(seed, k=4, L=25_000):
    return [Input(GenSpec(k, L, seed, "star_pattern"))]


def wide_blocks(seed, k=32, L=100, count=8):
    # Eight ladders of L=100 rather than one of L=800: the same blocks, but
    # each J fits in L3, so the timings follow the program rather than how
    # much of L3 the host's neighbours take. Traced runs time the joined
    # ladder too (engine.joined_*_ratio), so growth beyond linear still shows.
    rng = np.random.default_rng(seed)
    return [
        Input(GenSpec(k, L, int(rng.integers(2**31)), "random_tree"))
        for _ in range(count)
    ]


def many_small(seed, count=600):
    # The same population of (k, L, structure) for every seed, so that the
    # median per model does not move with the mix; the seed sets the order
    # and each model's weights and trees.
    rng = np.random.default_rng(seed)
    shapes = [
        (2 + i % 3, 8 + (i // 9) % 40, STRUCTURES[(i // 3) % len(STRUCTURES)])
        for i in range(count)
    ]
    return [
        Input(GenSpec(k, L, int(rng.integers(2**31)), structure))
        for k, L, structure in (shapes[j] for j in rng.permutation(count))
    ]


def cyclic_dual(seed, k=4, L=1000):
    return [Input(GenSpec(k, L, seed, "random_tree"), cyclic=(k, L, seed))]


@dataclass(frozen=True)
class Workload:
    inputs: object  # (seed, **size) -> list[Input]
    dense_oracle: bool  # also compare both routes with logdet_dense on J
    expect_valid: bool  # what validate(model).ok should say
    toy: dict  # size arguments of the smoke-test version
    join: bool = False  # traced runs also time the inputs joined into one


WORKLOADS = {
    "long_ladder": Workload(long_ladder, False, True, {"L": 40}),
    "wide_blocks": Workload(
        wide_blocks, False, True, {"k": 5, "L": 6, "count": 2}, join=True
    ),
    "many_small": Workload(many_small, True, True, {"count": 6}),
    "cyclic_dual": Workload(cyclic_dual, True, False, {"k": 3, "L": 12}),
}


# ----------------------------------------------------------------- tracing


class Tracer:
    """Spans, samples and counters of one traced run, kept in memory.

    A span is [name, start, end, parent span index or -1, operation id].
    Samples are untraced timings taken in the same run; counters are
    counts made at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self.op_kinds = []
        self.samples = {}
        self.counts = {}
        self._stack = []

    def begin_op(self, kind):
        self.op_kinds.append(kind)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, clock(), None, parent, len(self.op_kinds) - 1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = clock()

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


class NullTracer:
    """Stands in for Tracer in untraced set-up; records nothing."""

    def begin_op(self, kind):
        pass

    def span(self, name):
        return contextlib.nullcontext()


# ------------------------------------------------------------------ set-up


@dataclass
class Case:
    """One input model of a running workload, with its files."""

    model: LadderModel
    path: str  # the model file every file-reading call loads
    gen_argv: list  # `gaussdual gen` arguments for this input
    gen_spec: GenSpec
    gen_path: str  # where `gaussdual gen` writes
    gen_ref: str  # a file save_model wrote for the same spec and metadata
    gen_bytes: bytes = b""  # its contents, which `gaussdual gen` must match
    file_mb: float = 0.0
    half: LadderModel = None  # traced runs: the model at L // 2
    joined: LadderModel = None  # traced runs of a joining workload, first input


def _gen_metadata(spec):
    # The metadata `gaussdual gen` writes, so set-up files match its output.
    return {"name": f"{spec.structure}-k{spec.k}-L{spec.L}", "seed": spec.seed}


def _fresh(path):
    # Truncating a non-empty file makes ext4 flush it on close (tens of ms);
    # writing a fresh file measures the program rather than the file system.
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _save(tr, path, model, metadata):
    _fresh(path)
    with tr.span("modelio.save_model"):
        save_model(path, model, metadata)


def setup(inputs, workdir, tr):
    """Generate every input model and write it as JSON."""
    cases = []
    tr.begin_op("setup")
    with tr.span("bench.setup"):
        for i, inp in enumerate(inputs):
            spec = inp.gen
            path = os.path.join(workdir, f"model{i}.json")
            gen_ref = path
            if inp.cyclic:
                with tr.span("bench.cyclic_model"):
                    model = cyclic_model(*inp.cyclic)
                _save(tr, path, model, {"name": f"cyclic-{i}"})
                gen_ref = os.path.join(workdir, f"gen_ref{i}.json")
                with tr.span("generate.generate"):
                    gen_model = generate(spec)
                _save(tr, gen_ref, gen_model, _gen_metadata(spec))
            else:
                with tr.span("generate.generate"):
                    model = generate(spec)
                _save(tr, path, model, _gen_metadata(spec))
            gen_path = os.path.join(workdir, f"gen{i}.json")
            argv = ["gen", "--k", str(spec.k), "--l", str(spec.L), "--seed"]
            argv += [str(spec.seed), "--structure", spec.structure, "--out", gen_path]
            cases.append(Case(model, path, argv, spec, gen_path, gen_ref))
    return cases


def read_references(cases):
    """Load what `gaussdual gen` must write, after checking it reloads exactly."""
    for case in cases:
        reloaded, _ = load_model(case.gen_ref)
        if not _same_model(reloaded, generate(case.gen_spec)):
            raise RuntimeError(f"{case.gen_ref} does not reload to its model")
        with open(case.gen_ref, "rb") as fh:
            case.gen_bytes = fh.read()
        case.file_mb = os.path.getsize(case.path) / 2**20


# --------------------------------------------------------------- operations
#
# An operation returns (timings, outcome). ``timings`` maps end-to-end
# metric names to seconds; ``outcome`` is a list of (check, value) pairs
# that `failed_checks` judges once every reference value is known.


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _same_model(a, b):
    return a.k == b.k and a.L == b.L and np.array_equal(a.sigma_blocks, b.sigma_blocks)


def _gen_outcome(case, code):
    with open(case.gen_path, "rb") as fh:
        written = fh.read()
    return [("exit_code", code), ("gen_file_matches", written == case.gen_bytes)]


def op_dual(case):
    t = clock()
    value = logdet_sigma_via_duality(case.model)
    return {"dual_logdet_s": clock() - t}, [("dual", value)]


def op_direct(case):
    t = clock()
    value = logdet_sigma_direct(case.model, "block_tridiag")
    return {"direct_logdet_s": clock() - t}, [("direct", value)]


def op_file_to_verified(case):
    t0 = clock()
    model, _ = load_model(case.path)
    report = validate(model)
    t1 = clock()
    check = duality_check(model, tol=ROUTE_RTOL, direct_method="block_tridiag")
    t2 = clock()
    return (
        {"file_to_verified_s": t2 - t0, "verified_logdet_s": t2 - t1},
        [
            ("same_model", _same_model(model, case.model)),
            ("valid", report.ok),
            ("duality_ok", check.ok),
            ("dual", check.logdet_via_duality),
            ("direct", check.logdet_direct),
        ],
    )


def op_cli_logdet(case):
    argv = ["logdet", case.path, "--method", "duality-bp", "--json"]
    t = clock()
    code, out = _call_cli(argv)
    wall = clock() - t
    return {"cli_logdet_s": wall}, [
        ("exit_code", code),
        ("cli_logdet", json.loads(out)["logdet"]),
    ]


def op_cli_gen(case):
    _fresh(case.gen_path)
    t = clock()
    code, _ = _call_cli(case.gen_argv)
    wall = clock() - t
    return {"cli_gen_s": wall}, _gen_outcome(case, code)


UNTRACED_OPS = (op_dual, op_direct, op_file_to_verified, op_cli_logdet, op_cli_gen)


# Traced replicas: the public calls the engine makes, in its order.


def _eliminate_dual(tr, dual):
    # engine._logdet_dual_precision(method="tree_bp", dense_fallback=True)
    tr.count("tree_attempts")
    try:
        with tr.span("elimination.logdet_tree_bp"):
            ld = logdet_tree_bp(dual.dual_precision).logdet
    except NotAForest:
        with tr.span("elimination.logdet_dense"):
            return logdet_dense(dual.dual_precision).logdet
    tr.count("tree_successes")
    return ld


def traced_dual(tr, model):
    """logdet_sigma_via_duality(model), one span per layer call."""
    with tr.span("engine.logdet_sigma_via_duality"):
        with tr.span("dual.build_dual"):
            dual = build_dual(model)
        ld_prime_inv = _eliminate_dual(tr, dual)
        with tr.span("model.local_logdets"):
            locals_ = local_logdets(model)
    return float(locals_.sum() - ld_prime_inv), dual


def traced_direct(tr, model):
    """logdet_sigma_direct(model, "block_tridiag"), one span per layer call."""
    with tr.span("engine.logdet_sigma_direct"):
        with tr.span("model.assemble_global_precision"):
            j = assemble_global_precision(model)
        with tr.span("elimination.block_partition"):
            diag_blocks, off_blocks = block_partition(j, model.k)
        with tr.span("elimination.logdet_block_tridiagonal"):
            report = logdet_block_tridiagonal(diag_blocks, off_blocks)
    return float(-report.logdet), j


def traced_duality_check(tr, model):
    """duality_check(model, direct_method="block_tridiag"), by layer call."""
    with tr.span("engine.duality_check"):
        with tr.span("model.local_logdets"):
            locals_ = local_logdets(model)
        with tr.span("dual.build_dual"):
            dual = build_dual(model)
        ld_prime_inv = _eliminate_dual(tr, dual)
        ld_direct, _ = traced_direct(tr, model)
    return float(locals_.sum() - ld_prime_inv), ld_direct


def _timed(f, *args, **kwargs):
    t = clock()
    value = f(*args, **kwargs)
    return value, clock() - t


# Each traced operation also times the real engine call, untraced, so that
# engine self time and the tracing overhead can be derived. The two run in
# turn, first one then the other, so neither always meets warm caches.


def _in_turn(tr, kind, real, replica):
    tr.count(kind + "_pairs")
    if tr.counts[kind + "_pairs"] % 2:
        return real(), replica()
    replica_value = replica()
    return real(), replica_value


def trace_dual(tr, sizes, case):
    def real():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, wall = _timed(logdet_sigma_via_duality, case.model)
        fallbacks = [w for w in caught if FALLBACK_WARNING in str(w.message)]
        tr.count("dense_fallbacks", len(fallbacks))
        tr.sample("dual", wall)
        return value

    value, (replica, dual) = _in_turn(
        tr, "dual", real, lambda: traced_dual(tr, case.model)
    )
    tr.sample("dual_half", _timed(logdet_sigma_via_duality, case.half)[1])
    outcome = [("dual", value), ("dual", replica)]
    if case.joined is not None:
        joined, wall = _timed(logdet_sigma_via_duality, case.joined)
        tr.sample("dual_joined", wall)
        outcome.append(("joined_dual", joined))
    tr.begin_op("probe")
    with tr.span("bench.probe"):
        try:
            with tr.span("elimination.tree_elimination_order"):
                rounds = tree_elimination_order(dual.dual_precision).rounds
        except NotAForest:
            rounds = 0
    g = dual.dual_precision
    sizes.setdefault("dual", {})[id(case)] = (g.n, g.nnz, rounds)
    return {}, outcome


def trace_direct(tr, sizes, case):
    def real():
        value, wall = _timed(logdet_sigma_direct, case.model, "block_tridiag")
        tr.sample("direct", wall)
        return value

    value, (replica, j) = _in_turn(
        tr, "direct", real, lambda: traced_direct(tr, case.model)
    )
    outcome = [("direct", value), ("direct", replica)]
    if case.joined is not None:
        joined, wall = _timed(logdet_sigma_direct, case.joined, "block_tridiag")
        tr.sample("direct_joined", wall)
        outcome.append(("joined_direct", joined))
    sizes.setdefault("j", {})[id(case)] = (j.n, j.nnz)
    return {}, outcome


def trace_file_to_verified(tr, sizes, case):
    def real():
        check, wall = _timed(
            duality_check, case.model, tol=ROUTE_RTOL, direct_method="block_tridiag"
        )
        tr.sample("duality_check", wall)
        return check

    def replica():
        with tr.span("bench.file_to_verified"):
            with tr.span("modelio.load_model"):
                model, _ = load_model(case.path)
            with tr.span("model.validate"):
                report = validate(model)
            return model, report, traced_duality_check(tr, model)

    check, (model, report, (dual, direct)) = _in_turn(tr, "verify", real, replica)
    return {}, [
        ("same_model", _same_model(model, case.model)),
        ("valid", report.ok),
        ("duality_ok", check.ok),
        ("dual", check.logdet_via_duality),
        ("direct", check.logdet_direct),
        ("dual", dual),
        ("direct", direct),
    ]


def trace_cli_logdet(tr, sizes, case):
    argv = ["logdet", case.path, "--method", "duality-bp", "--json"]
    with tr.span("cli.main"):
        code, out = _call_cli(argv)
    return {}, [("exit_code", code), ("cli_logdet", json.loads(out)["logdet"])]


def trace_cli_gen(tr, sizes, case):
    _fresh(case.gen_path)
    with tr.span("cli.main"):
        code, _ = _call_cli(case.gen_argv)
    outcome = _gen_outcome(case, code)
    with tr.span("bench.gen"):
        with tr.span("generate.generate"):
            model = generate(case.gen_spec)
        _save(tr, case.gen_path, model, _gen_metadata(case.gen_spec))
    return {}, outcome


TRACED_OPS = (
    trace_dual,
    trace_direct,
    trace_file_to_verified,
    trace_cli_logdet,
    trace_cli_gen,
)


# ---------------------------------------------------------------- checking


def _rel_err(got, expected):
    return abs(got - expected) / max(1.0, abs(expected))


# Each route's value is checked against the other route on the same model.
OTHER_ROUTE = {
    "dual": "direct",
    "direct": "dual",
    "joined_dual": "joined_direct",
    "joined_direct": "joined_dual",
}


def references(records, cases, dense_oracle):
    """First value of each route per input, and the dense oracle if asked."""
    refs = [{} for _ in cases]
    for _, i, outcome in records:
        for check, value in outcome or ():
            if check in OTHER_ROUTE:
                refs[i].setdefault(check, value)
    if dense_oracle:
        for ref, case in zip(refs, cases):
            ref["dense"] = -logdet_dense(assemble_global_precision(case.model)).logdet
    return refs


def failed_checks(outcome, ref, expect_valid):
    """Names of the checks in ``outcome`` that fail against ``ref``."""
    failed = []
    for check, value in outcome:
        if check in OTHER_ROUTE:
            against = [ref.get(OTHER_ROUTE[check])]
            if check in ("dual", "direct") and "dense" in ref:
                against.append(ref["dense"])
            ok = all(
                r is not None and _rel_err(value, r) <= ROUTE_RTOL for r in against
            )
        elif check == "cli_logdet":
            ok = "dual" in ref and _rel_err(value, ref["dual"]) <= CLI_RTOL
        elif check == "exit_code":
            ok = value == 0
        elif check == "valid":
            ok = value == expect_valid
        else:
            ok = value is True
        if not ok:
            failed.append(check)
    return failed


# ------------------------------------------------------------------ running


def _loop(run_round, seconds):
    """Closed loop: whole rounds until the next one would pass ``seconds``."""
    start = clock()
    rounds = 0
    while True:
        t = clock()
        run_round()
        rounds += 1
        now = clock()
        if rounds >= MIN_ROUNDS and now + (now - t) - start > seconds:
            return rounds


def _warm_up(workdir):
    """Run every operation once on tiny inputs, so lazy set-up is not timed."""
    inputs = [Input(GenSpec(2, 4, 0, "random_tree")), cyclic_dual(0, k=2, L=4)[0]]
    cases = setup(inputs, workdir, NullTracer())
    read_references(cases)
    for case in cases:
        case.half = case.model
        for op in UNTRACED_OPS + TRACED_OPS:
            # A call that fails here fails again, and is counted, in the run.
            with contextlib.suppress(Exception):
                op(case) if op in UNTRACED_OPS else op(Tracer(), {}, case)


def l3_bytes():
    """Size of the L3 cache, read from sysfs; 0 when it is not exposed."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError, ValueError):
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            return int(text.rstrip("KMG")) * scale
    return 0


def environment():
    def blas_version(config):
        return config["Build Dependencies"]["blas"].get("version", "unknown")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np.show_config(mode="dicts")),
        "scipy_openblas": blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
        or os.cpu_count(),
        "l3_bytes": l3_bytes(),
    }


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    samples: dict  # name -> list of seconds behind each timing metric
    errors: list
    rounds: int
    env: dict

    @property
    def failed_frac(self):
        return self.failed / self.attempted

    def as_json(self):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run_workload(name, seed, seconds, trace, workdir, toy=False, trace_path=None):
    """Run one workload for ``seconds`` and return its Result.

    ``toy`` runs the workload at the small size the smoke test uses.
    ``trace_path``, in a traced run, is where the spans are written.
    """
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, **(workload.toy if toy else {}))
    tr = Tracer() if trace else NullTracer()
    ops = TRACED_OPS if trace else UNTRACED_OPS
    floor, setup_floor = (0.0, 0.0) if toy else (OP_FLOOR_S, SETUP_FLOOR_S)
    records, timings, errors, sizes = [], {}, [], {}

    def run_op(op, i, case):
        tr.begin_op(op.__name__)
        try:
            times, outcome = op(tr, sizes, case) if trace else op(case)
        except Exception as exc:  # a failed call is a failed operation
            records.append((op.__name__, i, None))
            errors.append(f"{op.__name__} on input {i}: {exc!r}")
            return
        records.append((op.__name__, i, outcome))
        for metric, value in times.items():
            timings.setdefault(metric, []).append(value)

    def run_round():
        # Input by input, every operation in turn, so that a slow spell of
        # the machine falls on every metric alike. A cheap call repeats until
        # it has run its share of the floor, so that it gets enough samples.
        gc.collect()
        share = floor / len(cases)
        for i, case in enumerate(cases):
            for op in ops:
                start = clock()
                run_op(op, i, case)
                while clock() - start < share:
                    run_op(op, i, case)

    os.makedirs(workdir)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=FALLBACK_WARNING)
            _warm_up(workdir)
            setup_s = timings["setup_s"] = []
            while len(setup_s) < SETUP_REPEATS or sum(setup_s) < setup_floor:
                # Deleting the last set-up's files is not part of set-up.
                setup_dir = os.path.join(workdir, "setup")
                shutil.rmtree(setup_dir, ignore_errors=True)
                os.makedirs(setup_dir)
                t = clock()
                cases = setup(inputs, setup_dir, tr)
                setup_s.append(clock() - t)
            read_references(cases)
            if trace:
                for case, inp in zip(cases, inputs):
                    case.half = inp.halved().build()
                if workload.join:
                    cases[0].joined = inputs[0].joined(inputs).build()
            rounds = _loop(run_round, seconds)
            refs = references(records, cases, workload.dense_oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    for op_name, i, outcome in records:
        if outcome is None:
            failed += 1
            continue
        bad = failed_checks(outcome, refs[i], workload.expect_valid)
        if bad:
            failed += 1
            errors.append(f"{op_name} on input {i}: check failed: {', '.join(bad)}")

    env = environment()
    if trace:
        metrics = layer_metrics(tr, cases, sizes, env)
        if trace_path:
            write_trace(trace_path, tr, env, name, seed)
    else:
        # A timing whose every call failed reads 0; the run is then not correct.
        metrics = {
            metric: (_med(timings.get(metric, [])), unit)
            for metric, unit in END_TO_END
            if metric != "peak_rss_mb"
        }
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    return Result(len(records), failed, metrics, timings, errors, rounds, env)


# ------------------------------------------------------- per-layer metrics


def _med(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def _spans_with_children(tr):
    """Per span: (name, duration, time covered by its children, op kind)."""
    covered = [0.0] * len(tr.spans)
    for name, start, end, parent, op in tr.spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (name, end - start, covered[idx], tr.op_kinds[op])
        for idx, (name, start, end, parent, op) in enumerate(tr.spans)
    ]


def layer_metrics(tr, cases, sizes, env):
    spans = _spans_with_children(tr)

    def dur(name, kind=None):
        return [d for n, d, _, k in spans if n == name and kind in (None, k)]

    def covered(name, kind=None):
        return [c for n, _, c, k in spans if n == name and kind in (None, k)]

    m = {}
    for name in (
        "generate.generate",
        "modelio.load_model",
        "modelio.save_model",
        "model.validate",
        "model.local_logdets",
        "model.assemble_global_precision",
        "dual.build_dual",
        "elimination.tree_elimination_order",
        "elimination.logdet_tree_bp",
        "elimination.block_partition",
        "elimination.logdet_block_tridiagonal",
    ):
        m[name + "_s"] = _med(dur(name))
    m["modelio.file_mb"] = _med([c.file_mb for c in cases])

    passes = {kind: n / len(cases) for kind, n in Counter(tr.op_kinds).items()}
    n_dual, nnz, tree_rounds = zip(*sizes.get("dual", {None: (0, 0, 0)}).values())
    m["dual.n_dual"] = _med(n_dual)
    m["dual.nnz"] = _med(nnz)
    m["elimination.tree_rounds"] = _med(tree_rounds)
    m["elimination.pivot_loop_s"] = (
        m["elimination.logdet_tree_bp_s"] - m["elimination.tree_elimination_order_s"]
    )
    # A share, not a time: the dense path is never reached on a forest, and a
    # time that reads 0 on every run would look like no measurement at all.
    m["elimination.logdet_dense_share"] = _ratio(
        sum(dur("elimination.logdet_dense", "trace_dual")),
        sum(dur("engine.logdet_sigma_via_duality")),
    )
    m["elimination.forest_hit_ratio"] = _ratio(
        tr.counts.get("tree_successes", 0), tr.counts.get("tree_attempts", 0)
    )
    # Computed operations of the Schur recursion: (L+1)·13k³/3 per model.
    flop = sum((c.model.L + 1) * 13 * c.model.k**3 / 3 for c in cases)
    bt = dur("elimination.logdet_block_tridiagonal")
    gflop = flop * len(bt) / len(cases) / 1e9
    m["elimination.block_tridiag_gflops"] = _ratio(gflop, sum(bt))

    real = {name: _med(tr.samples.get(name, [])) for name in REAL_CALLS}
    m["engine.dense_fallbacks"] = _ratio(
        tr.counts.get("dense_fallbacks", 0), passes.get("trace_dual", 0)
    )
    m["engine.logdet_sigma_via_duality_self_s"] = real["dual"] - _med(
        covered("engine.logdet_sigma_via_duality")
    )
    m["engine.logdet_sigma_direct_self_s"] = real["direct"] - _med(
        covered("engine.logdet_sigma_direct", "trace_direct")
    )
    m["engine.duality_check_self_s"] = real["duality_check"] - _med(
        covered("engine.duality_check")
    )
    m["engine.dual_doubling_ratio"] = _ratio(real["dual"], real["dual_half"])
    # One ladder of all the inputs' blocks over the sum of their per-input
    # medians: 1 is linear growth. 0 on workloads that do not join.
    for route in ("dual", "direct"):
        m[f"engine.joined_{route}_ratio"] = _ratio(
            real[f"{route}_joined"], len(cases) * real[route]
        )

    m["cli.logdet_self_s"] = (
        _med(dur("cli.main", "trace_cli_logdet"))
        - m["modelio.load_model_s"]
        - real["dual"]
    )
    m["cli.gen_self_s"] = (
        _med(dur("cli.main", "trace_cli_gen"))
        - _med(dur("generate.generate", "trace_cli_gen"))
        - _med(dur("modelio.save_model", "trace_cli_gen"))
    )

    # Self time per layer in one pass (every operation once on every
    # input), over the replicated user paths only: set-up, the ordering
    # probe and the opaque CLI calls are left out.
    self_s = dict.fromkeys(("generate", "modelio", "model", "dual", "elimination"), 0.0)
    for name, d, c, kind in spans:
        layer = name.split(".")[0]
        if layer in self_s and kind not in ("setup", "probe"):
            self_s[layer] += (d - c) / passes[kind]
    for layer, total in self_s.items():
        m[f"{layer}.self_s"] = total

    m["trace.dual_overhead_s"] = (
        _med(dur("engine.logdet_sigma_via_duality")) - real["dual"]
    )
    m["trace.direct_overhead_s"] = (
        _med(dur("engine.logdet_sigma_direct", "trace_direct")) - real["direct"]
    )

    l3 = env["l3_bytes"]
    m["env.nproc"] = env["nproc"]
    m["env.blas_threads"] = env["blas_threads"]
    m["env.l3_mb"] = l3 / 2**20
    # Computed, not measured: stored bytes of the (L, 2k, 2k) stacks, and of
    # J and Σ′⁻¹ as diagonal plus (row, col, value) triples, for one pass.
    computed = {
        "block_stack": sum(c.model.sigma_blocks.nbytes for c in cases),
        "j": sum(8 * (d + 3 * nz) for d, nz in sizes.get("j", {}).values()),
        "dual": sum(8 * (d + 3 * nz) for d, nz, _ in sizes.get("dual", {}).values()),
    }
    for what, nbytes in computed.items():
        m[f"size.{what}_mb"] = nbytes / 2**20
        m[f"size.{what}_l3_ratio"] = nbytes / l3 if l3 else 0.0
    units = dict(PER_LAYER)
    return {name: (float(m[name]), units[name]) for name, _ in PER_LAYER}


def write_trace(path, tr, env, workload, seed):
    """Write the run's spans, samples and counters as JSON."""
    t0 = tr.spans[0][1] if tr.spans else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "spans": [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "op": op,
                "kind": tr.op_kinds[op],
            }
            for name, start, end, parent, op in tr.spans
        ],
        "samples": tr.samples,
        "counts": tr.counts,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
