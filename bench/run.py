"""Closed-loop, one-client benchmark of the nvtransformer package.

    python3 bench/run.py --workload toy-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One client calls the package's public functions and waits
for each result before sending the next op, the way a researcher runs the
CLI.  The loop runs for `--seconds` seconds and at least MIN_OPS ops.

End-to-end times are reported at a nominal machine speed (see ScaledClock),
because a shared machine's own speed drifts by more than the bounds; the
plain wall-clock figures are written next to them in the record.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
reports the per-layer metrics instead: every op then runs twice on the same
input, once plain and once with the tracer installed, in alternating order,
and the two outputs must agree bit for bit.  The plain twin gives the
tracing overhead.  Spans are written to `bench/out/<workload>.spans.npz` and
every result, with its environment, to `bench/out/`.

The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS = 1    # one client, one core; also keeps runs steady
SETUP_REPS = 5      # set-up runs at least this often and for SETUP_MIN_S;
SETUP_MIN_S = 1.0   # setup_s is the median
MIN_OPS = 100       # so at least ten ops lie beyond the p90
MIN_TRACED_OPS = 10
MAX_LOOP_S = 120    # stop early rather than overrun the run's time limit
REF_MS = 3.0        # a workload's reference computation at nominal speed

# span name -> per-op figures reported for it
SPAN_METRICS = {
    "model.forward_nv": ("calls", "self_ms"),
    "model.forward_standard": ("calls", "self_ms"),
    "nvib.project": ("calls", "self_ms"),
    "denoising.eval_dattn_multihead": ("calls", "self_ms"),
    "attention.attention": ("calls", "self_ms"),
    "model.layer_norm": ("calls", "self_ms"),
    "model.ffn": ("calls", "self_ms"),
    "numeric.softmax_rows": ("calls", "self_ms"),
    "priors.welford.add_batch": ("calls", "self_ms"),
    "priors.estimate_priors": ("self_ms",),
    "serialize.save_weights": ("self_ms",),
    "serialize.load_weights": ("self_ms",),
}


def _pin_blas_threads() -> None:
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    if not (SRC / "nvtransformer" / "__init__.py").is_file():
        raise ImportError(f"no nvtransformer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nvtransformer

    if Path(nvtransformer.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"nvtransformer imported from {nvtransformer.__file__}")
    return nvtransformer


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads(np) -> int:
    """Thread count the bundled OpenBLAS reports, or the pinned value."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return BLAS_THREADS


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class ScaledClock:
    """Wall times rescaled to a nominal machine speed.

    On a machine shared with other tenants the same work can take 1.7 times
    as long for seconds or minutes at a stretch.  A reference computation
    runs before the first timed call and after each one: `iterations` steps
    of x = tanh(x @ w) on (dim, dim) matrices, the same kind of work as the
    workload's (small-array calls at the toy width, BLAS products at the
    wide one) but none of it from the package.  Every wall time is
    multiplied by REF_MS over the mean reference time on either side of it,
    so a change to the package moves the scaled time and a change in the
    machine's speed mostly does not.
    """

    def __init__(self, dim: int, iterations: int):
        import numpy as np

        self._np = np
        self._w = np.random.default_rng(0).normal(size=(dim, dim)) / np.sqrt(dim)
        self._iterations = iterations
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.ref: list[float] = [self._reference()]

    def _reference(self) -> float:
        t0 = perf_counter()
        x = self._w
        for _ in range(self._iterations):
            x = self._np.tanh(x @ self._w)
        return perf_counter() - t0

    def add(self, wall_s: float) -> None:
        """Record a call that took `wall_s` seconds and has just ended."""
        self.ref.append(self._reference())
        self.wall.append(wall_s)
        self.scaled.append(wall_s * 2e-3 * REF_MS / (self.ref[-2] + self.ref[-1]))


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _timed(fn, *args):
    """Call fn(*args); returns (result, or None if it raised, and seconds)."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, perf_counter() - t0


def _checked(wl, inp, out) -> bool:
    try:
        return out is not None and bool(wl.check(inp, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def _loop(seconds: float, min_ops: int):
    """Op indices for a closed loop of `seconds` and at least `min_ops`."""
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        if perf_counter() - start > MAX_LOOP_S:
            print(f"stopped after {i} ops at {MAX_LOOP_S} s", file=sys.stderr)
            return
        yield i
        i += 1


def _timings(op_s: list[float], setup_s: list[float], tokens: float) -> dict:
    p90 = statistics.quantiles(op_s, n=10)[8] if len(op_s) > 1 else op_s[0]
    return {
        "setup_s": statistics.median(setup_s),
        "tokens_per_s": tokens / sum(op_s),
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "op_ms_p90": 1e3 * p90,
    }


def _end_to_end(wl, seconds, min_ops, setup_clock):
    clock = ScaledClock(*wl.reference)
    tokens, failed = 0.0, 0
    for i in _loop(seconds, min_ops):
        inp = wl.make_input(i)
        out, dt = _timed(wl.op, inp)
        clock.add(dt)
        if _checked(wl, inp, out):
            tokens += wl.tokens(inp, out)
        else:
            failed += 1
    attempted = len(clock.wall)
    values = _timings(clock.scaled, setup_clock.scaled, tokens)
    values["ops_ok_pct"] = 100.0 * (attempted - failed) / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = _timings(clock.wall, setup_clock.wall, tokens)
    wall["reference_ms_p50"] = 1e3 * statistics.median(clock.ref)
    return attempted, failed, values, wall


def _per_layer(wl, seconds, min_ops, workload):
    from nvtransformer import nvib

    from spans import OP_SPAN, Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    failed = clamps = 0
    last_good = None
    for i in _loop(seconds, min_ops):
        inp = wl.make_input(i)
        prints = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                before = nvib.ALPHA_CLAMP_EVENTS.count
                out, dt = _timed(tracer.run_op, i, wl.op, inp)
                clamps += nvib.ALPHA_CLAMP_EVENTS.count - before
                tracer.uninstall()
                traced_s += dt
            else:
                out, dt = _timed(wl.op, inp)
                plain_s += dt
            prints[traced] = None if out is None else wl.fingerprint(inp, out)
        # `out` is from whichever run went last; the fingerprints show both
        # runs gave the same bits
        if prints[True] is not None and prints[True] == prints[False] \
                and _checked(wl, inp, out):
            last_good = (inp, out)
        else:
            failed += 1
    n = i + 1
    tracer.save(str(OUT_DIR / f"{workload}.spans.npz"))

    calls, self_ms, c = tracer.calls(), tracer.self_ms(), tracer.counts
    values = {}
    for span, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            values[f"{span}.calls_per_op"] = calls.get(span, 0) / n
        values[f"{span}.self_ms_per_op"] = self_ms.get(span, 0.0) / n
    decoded = c["decode.tokens"]
    projects = calls.get("nvib.project", 0)
    values.update({
        "model.greedy_decode.positions_per_token":
            c["decode.positions"] / decoded if decoded else 0.0,
        "model.greedy_decode.encoder_passes_per_token":
            c["decode.encoder_passes"] / decoded if decoded else 0.0,
        "nvib.project.repeat_share":
            c["project.repeats"] / projects if projects else 0.0,
        "denoising.eval_dattn_multihead.score_entries_per_op":
            c["eval_dattn.score_entries"] / n,
        "denoising.eval_dattn_multihead.flops_per_op": c["eval_dattn.flops"] / n,
        "attention.attention.score_entries_per_op": c["attention.score_entries"] / n,
        "attention.attention.flops_per_op": c["attention.flops"] / n,
        "serialize.save_weights.bytes_per_op": c["save_weights.bytes"] / n,
        "nvib.alpha_clamp_events_per_op": clamps / n,
        "evaluate.identity_max_logit_diff":
            wl.identity_diff(*last_good) if last_good else -1.0,
        "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
        "trace.unattributed_ms_per_op": self_ms.get(OP_SPAN, 0.0) / n,
    })
    return n, failed, values, {}


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int) -> tuple[dict, dict]:
    """Set up `workload` and run its closed loop.  Returns the result object
    and the plain wall-clock timings (empty for a traced run)."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = WORKLOADS[workload](seed, workdir)
        setup_clock = ScaledClock(*wl.reference)
        while len(setup_clock.wall) < SETUP_REPS or sum(setup_clock.wall) < SETUP_MIN_S:
            t0 = perf_counter()
            wl.setup()
            setup_clock.add(perf_counter() - t0)
        wl.prepare()
        if trace:
            attempted, failed, values, wall = _per_layer(wl, seconds, min_ops, workload)
        else:
            attempted, failed, values, wall = _end_to_end(wl, seconds, min_ops, setup_clock)

    section = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _spec()[section]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    try:
        _import_package()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment()
    result, wall = run(args.workload, args.seed, args.seconds, bool(args.trace),
                       MIN_TRACED_OPS if args.trace else MIN_OPS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "wall": wall, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "wall": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
