"""Alternating before/after perfbench runs, recorded in a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --before ../parent --after . --workload qsolve \
        --pairs 10 --seed 11 --seconds 20 --out BENCH_19.json

``--before`` and ``--after`` are two checkouts of the repository, each
with its own ``perfbench/``.  Pair i runs ``perfbench/run.py --trace T``
(``--trace``, default 0) in both, the before checkout first on even i and
the after checkout first on odd i, so a drift in machine load falls on
both sides.  Each run's final JSON line (``correct``, ``attempted``,
``failed``, ``metrics``) is appended to the ``runs`` list of ``--out``,
numbering pairs on from the workload's runs at the same ``--trace``
already there; the file is created with a record of the environment if
it does not exist.  A traced run (``--trace 1``) also keeps the mean self
time per operation of every span (``mean_self_s``) from the run's record
under ``perfbench/out``, since its final line holds only the per-layer
metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def _commit(tree: Path) -> str:
    r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(before: Path, after: Path) -> dict:
    import numpy

    return {"cpu": _cpu(), "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "blas_threads": "1 (set by perfbench/run.py)",
            "before": {"commit": _commit(before)}, "after": {"commit": _commit(after)}}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    record = {"exit": r.returncode}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["stderr_tail"] = r.stderr[-500:]
    if trace and r.returncode == 0:
        out = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace1.json"
        record["mean_self_s"] = json.loads(out.read_text())["mean_self_s"]
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", type=Path, required=True)
    p.add_argument("--after", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"environment": environment(trees["before"], trees["after"]), "runs": []})
    done = sum(r["workload"] == args.workload and r["side"] == "before"
               and r.get("trace", 0) == args.trace for r in doc["runs"])
    for i in range(done, done + args.pairs):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            record = {"workload": args.workload, "pair": i, "side": side, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}
            record.update(run_once(trees[side], args.workload, args.seed, args.seconds,
                                   args.trace))
            doc["runs"].append(record)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
