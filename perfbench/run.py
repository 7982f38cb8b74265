"""qsslsvm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): simulate, evolve, train, qsolve.  Each is a
closed loop with one caller that sends the next operation only after the
previous one returned, in this single process.  The run

1. sets up: imports the package from ``src/``, generates every input file
   from the seed, computes numpy-only references and runs warm-up
   operations.  With ``--trace 0`` set-up is repeated in fresh processes
   and ``setup_s`` is the median;
2. runs operations for ``--seconds`` and gates each output against the
   references; a missed gate, an exception or a non-zero exit is a failure;
3. with ``--trace 0`` measures the end-to-end metrics with tracing off,
   one untimed ``tracemalloc`` pass for ``peak_mem_mb`` and, on
   ``simulate``, the ``simulate_max_m`` capability sweep; with
   ``--trace 1`` it alternates untraced and traced operations and reports
   per-layer self times and counts (tracing.py) plus the tracing overhead.

It prints a readable summary, writes the full record (and, traced, the
spans) under ``perfbench/out/``, and ends with one JSON line holding the
metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS threads, fixed before numpy is imported: one thread keeps runs on a
#: shared machine steady and never exceeds nproc.
BLAS_THREADS = 1
#: Operations run during set-up: the first calls in a process are slower,
#: so they are timed under setup_s and not under op_s.
WARMUP_OPS = 2
SETUP_REPEATS = 3
MEMORY_OPS = 3
ROOT_SPAN = "perfbench.op"
ENTRY_POINTS = [("qsslsvm.cli", "main")]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("simulate", "evolve", "train", "qsolve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: set up once, print the set-up record and exit")
    return p.parse_args(argv)


def fix_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import qsslsvm from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qsslsvm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsslsvm sources under {src}")
    sys.path.insert(0, str(src))
    import qsslsvm
    import qsslsvm.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(qsslsvm.__file__).resolve().parent != (src / "qsslsvm").resolve():
        raise SystemExit(f"perfbench: imported qsslsvm from {qsslsvm.__file__}, not {src}")
    return qsslsvm


class Ledger:
    """Attempted and failed operations with the quality they reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.quality: dict[str, list[float]] = {}

    def add(self, outcome) -> None:
        self.attempted += 1
        if outcome.failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append("; ".join(outcome.failures))
        for key, value in outcome.quality.items():
            self.quality.setdefault(key, []).append(float(value))

    def merge(self, record: dict) -> None:
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.messages.extend(record["messages"][: max(0, 20 - len(self.messages))])
        for key, values in record["quality"].items():
            self.quality.setdefault(key, []).extend(values)

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages, "quality": self.quality}


class Session:
    """A set-up workload: package, cases and scratch directory."""

    def __init__(self, args):
        self.qs = import_package()
        import numpy as np

        import workloads

        self.workloads = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.workdir = OUT / f"work-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        salt = zlib.crc32(args.workload.encode())
        self.rng = np.random.default_rng([args.seed & (2**64 - 1), salt])
        self.cases = self.workload.make_cases(self.rng, self.workdir)
        self.ledger = Ledger()

    def execute(self, index: int, around=None):
        """One gated operation on case ``index % len(cases)``; returns
        (seconds, outcome).  ``around`` wraps the call (tracing, memory)."""
        wl = self.workload
        case = self.cases[index % len(self.cases)]
        wl.prepare(case)
        call = lambda: wl.run(self.qs, case)  # noqa: E731
        start = time.perf_counter()
        try:
            result = call() if around is None else around(call)
        except Exception as exc:  # the loop must go on; the failure is counted
            seconds = time.perf_counter() - start
            outcome = self.workloads.Outcome([f"{type(exc).__name__}: {exc}"])
        else:
            seconds = time.perf_counter() - start
            try:
                outcome = wl.check(case, result)
            except Exception as exc:  # an unreadable output fails its gate
                outcome = self.workloads.Outcome([f"check: {type(exc).__name__}: {exc}"])
        self.ledger.add(outcome)
        return seconds, outcome

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def set_up(args) -> tuple[Session, float]:
    start = time.perf_counter()
    session = Session(args)
    for i in range(WARMUP_OPS):
        session.execute(i)
    return session, time.perf_counter() - start


def setup_in_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, samples beyond).  Fewer than eleven samples give the max."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def closed_loop(session: Session, seconds: float, traced_op=None):
    """One caller for ``seconds``: each operation starts when the previous
    one returned.  With ``traced_op``, every other operation runs traced.
    Returns (untraced, traced) lists of (op index, seconds, outcome)."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        index = WARMUP_OPS + i
        if traced_op is not None and i % 2:
            traced.append((index, *session.execute(index, traced_op(index))))
        else:
            plain.append((index, *session.execute(index)))
        i += 1
    return plain, traced


def memory_pass(session: Session) -> list[float]:
    """Peak traced allocation (MB) of MEMORY_OPS operations, untimed."""
    peaks = []

    def around(call):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        return result

    tracemalloc.start()
    try:
        for i in range(MEMORY_OPS):
            session.execute(i, around)
    finally:
        tracemalloc.stop()
    return peaks


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_read": threads,
        "machine": platform.machine(),
    }


def per_layer(session, tracer, plain, traced, names) -> dict[str, float]:
    """Median per traced operation of every per-layer metric in ``names``."""
    table = tracer.per_op()

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    def field(op, span, key):
        return float(table.get(op, {}).get(span, {}).get(key, 0.0))

    def case(op):
        return session.cases[op % len(session.cases)]

    def step_dim(op):
        ran = field(op, "channels.glmr_step", "calls") + field(
            op, "channels.simulate_evolution", "calls")
        return 2 * case(op).m ** 2 if ran else 0

    def lap_dim(op):
        return case(op).m * case(op).edges if field(op, "encodings.laplacian_density", "calls") else 0

    def success(op):
        calls = field(op, "hhl.hhl_solve", "calls")
        return field(op, "hhl.hhl_solve", "success_probability") / calls if calls else 0.0

    computed = {
        "channels.step_dim": step_dim,
        "encodings.laplacian_density.dim": lap_dim,
        "encodings.laplacian_density.bytes": lambda op: 16 * lap_dim(op) ** 2,
        "hhl.success_probability": success,
        "hhl.expected_repeats": lambda op: 1.0 / success(op) if success(op) else 0.0,
    }
    ops = [op for op, _, _ in traced]
    stages = {op: outcome.stages for op, _, outcome in traced}
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = med([s for _, s, _ in traced]) - med([s for _, s, _ in plain])
        elif name.startswith("pipeline.stage."):
            stage = name[len("pipeline.stage."):-len("_s")]
            out[name] = med([stages[op].get(stage, 0.0) for op in ops])
        elif name in computed:
            out[name] = med([computed[name](op) for op in ops])
        else:
            span, _, key = name.rpartition(".")
            out[name] = med([field(op, span, key) for op in ops])
    return out


def summary_line(name, value, unit, note="") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:<16} {shown:>12} {unit:<8} {note}".rstrip()


def untraced_metrics(args, session, setup_s, record):
    """End-to-end metrics, tracing off; returns (metrics, summary lines)."""
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        child = setup_in_child(args)
        setups.append(child["setup_s"])
        session.ledger.merge(child)
    plain, _ = closed_loop(session, args.seconds)
    times = [s for _, s, _ in plain]
    tail_s, tail_pct, beyond = tail(times)
    peaks = memory_pass(session)
    sweep = None
    if session.workload.name == "simulate":
        sweep = session.workloads.simulate_sweep(session.qs, session.rng, session.workdir)
    ledger = session.ledger
    quality = ledger.quality

    def worst(key, pick):
        return pick(quality[key]) if key in quality else None

    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "fail_frac": ledger.failed / ledger.attempted,
        "setup_s": statistics.median(setups),
        "peak_mem_mb": statistics.median(peaks),
        "fidelity.min": worst("fidelity", min),
        "agreement.min": worst("agreement", min),
        "slope_dev.max": worst("slope_dev", max),
        "residual.max": worst("residual", max),
        "simulate_max_m": None if sweep is None else session.workloads.max_supported_m(sweep),
    }
    record.update({"op_times_s": times, "tail_percentile": tail_pct, "tail_beyond": beyond,
                   "setup_runs_s": setups, "memory_peaks_mb": peaks, "sweep": sweep})
    units = {"op_s.p50": "s", "op_s.tail": "s", "fail_frac": "ratio", "setup_s": "s",
             "peak_mem_mb": "MB", "fidelity.min": "1", "agreement.min": "1",
             "slope_dev.max": "1", "residual.max": "1", "simulate_max_m": "samples"}
    notes = {
        "op_s.p50": f"median of {len(times)} timed operations",
        "op_s.tail": f"p{tail_pct:.1f}, {beyond} of {len(times)} samples beyond",
        "setup_s": f"median of {len(setups)} set-ups, {WARMUP_OPS} warm-up ops each: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "peak_mem_mb": f"median of {len(peaks)} untimed tracemalloc operations",
        "agreement.min": "reported only, not gated",
    }
    if sweep is not None:
        notes["simulate_max_m"] = "; ".join(
            f"m={r['m']} {r['status']}" + (f" [{r['stage']}] {r['error']}" if "error" in r else "")
            for r in sweep)
    return metrics, [summary_line(k, v, units[k], notes.get(k, "")) for k, v in metrics.items()]


def traced_metrics(args, session, record, names):
    """Per-layer metrics from alternating traced operations."""
    from tracing import Tracer

    tracer = Tracer(session.qs, ENTRY_POINTS, {
        "channels.simulate_evolution": lambda r: {"steps": r.steps},
        "hhl.hhl_solve": lambda r: {"success_probability": r.success_probability},
    })
    plain, traced = closed_loop(
        session, args.seconds,
        traced_op=lambda index: lambda call: tracer.run_op(index, ROOT_SPAN, call))
    metrics = per_layer(session, tracer, plain, traced, names)
    err_ns = tracer.self_sum_error_ns(ROOT_SPAN)
    table = tracer.per_op()
    coverage = statistics.median(
        sum(rec["self_s"] for rec in table[op].values()) / seconds for op, seconds, _ in traced)
    totals: dict[str, float] = {}
    for op_table in table.values():
        for span, rec in op_table.items():
            totals[span] = totals.get(span, 0.0) + rec["self_s"] / max(len(traced), 1)
    by_self = sorted(totals.items(), key=lambda kv: -kv[1])
    spans_file = OUT / f"{session.workload.name}-seed{args.seed}-spans.json"
    spans_file.write_text(json.dumps(
        {"fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
         "spans": tracer.spans}) + "\n")
    p50_plain = statistics.median([s for _, s, _ in plain])
    p50_traced = statistics.median([s for _, s, _ in traced]) if traced else float("nan")
    record.update({"untraced_op_times_s": [s for _, s, _ in plain],
                   "traced_op_times_s": [s for _, s, _ in traced],
                   "self_sum_error_ns": err_ns, "span_coverage": coverage,
                   "mean_self_s": dict(by_self),
                   "spans_file": str(spans_file.relative_to(ROOT))})
    lines = [
        f"  traced ops {len(traced)}, untraced ops {len(plain)}",
        f"  op_s.p50 untraced {p50_plain:.6g} s, traced {p50_traced:.6g} s, "
        f"tracing overhead {p50_traced - p50_plain:.6g} s",
        f"  sum of span self times vs root span: max error {err_ns} ns; "
        f"spans cover {100 * coverage:.2f}% of the measured traced op time (median)",
        "  mean self time per traced op, top spans:",
    ] + [f"    {k:<40} {v:.6f} s" for k, v in by_self[:12]]
    lines += [summary_line(k, v, "") for k, v in metrics.items() if v]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    session, setup_s = set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, **session.ledger.record()}))
            return 0
        env = environment()
        wl = session.workload
        record = {"workload": wl.name, "why": wl.why, "params": wl.params, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "environment": env,
                  "closed_loop_clients": 1, "warmup_ops_per_setup": WARMUP_OPS}
        print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"  environment: {json.dumps(env)}")
        if args.trace == 0:
            wanted = spec["end_to_end"]
            metrics, lines = untraced_metrics(args, session, setup_s, record)
        else:
            wanted = spec["per_layer"]
            metrics, lines = traced_metrics(args, session, record, [m["name"] for m in wanted])
        ledger = session.ledger
        record.update({"attempted": ledger.attempted, "failed": ledger.failed,
                       "failures": ledger.messages, "metrics": metrics})
        print("\n".join(lines))
        print(f"  attempted {ledger.attempted}, failed {ledger.failed}")
        for message in ledger.messages[:5]:
            print(f"  failure: {message}")
        out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
        print(f"  record written to {out_file.relative_to(ROOT)}")
        print(json.dumps({
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }))
        return 0
    finally:
        session.close()


if __name__ == "__main__":
    sys.exit(main())
