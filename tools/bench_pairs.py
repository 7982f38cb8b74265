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

At the end it prints, for every workload (and ``--trace`` setting) in
``--out`` and every end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles over the complete pairs, the change of the median,
and the number of pairs in which the after side is better.  ``--pairs 0``
runs nothing and prints the summary of an existing ``--out``::

    python3 tools/bench_pairs.py --pairs 0 --out BENCH_24.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def _pairs(runs: list[dict]) -> list[tuple[dict, dict]]:
    """(before, after) final lines of the pairs in ``runs`` where both
    sides finished with a result."""
    sides = {}
    for r in runs:
        if "result" in r:
            sides.setdefault(r["pair"], {})[r["side"]] = r["result"]
    return [(s["before"], s["after"]) for _, s in sorted(sides.items()) if len(s) == 2]


def summary(doc: dict, metrics: list[dict]) -> list[str]:
    """Lines giving, per workload and trace setting and per metric, the
    median [first quartile, third quartile] of each side, the change of
    the median and the after side's wins over the complete pairs."""
    lines = []
    groups = {}
    for r in doc["runs"]:
        groups.setdefault((r["workload"], r.get("trace", 0)), []).append(r)
    for (workload, trace), runs in groups.items():
        pairs = _pairs(runs)
        failed = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side and "result" in r)
                  for side in ("before", "after")}
        lines.append(f"{workload} trace={trace}: {len(pairs)} complete pairs, "
                     f"failed ops before {failed['before']}, after {failed['after']}")
        if len(pairs) < 2:
            continue
        for metric in metrics:
            name = metric["name"]
            if any(name not in r["metrics"] for pair in pairs for r in pair):
                continue  # a traced run's final line holds the per-layer metrics only
            values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
                      for i, side in enumerate(("before", "after"))}
            lower = metric["better"] == "lower"
            wins = sum((a < b) if lower else (a > b)
                       for b, a in zip(values["before"], values["after"]))
            quoted = {}
            for side, v in values.items():
                q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
                quoted[side] = f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"
            b, a = statistics.median(values["before"]), statistics.median(values["after"])
            change = f"{100 * (a - b) / b:+.1f} %" if b else "n/a"
            lines.append(f"  {name:<12} before {quoted['before']}  after {quoted['after']}  "
                         f"{change}  wins {wins}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", type=Path)
    p.add_argument("--after", type=Path)
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs > 0 and None in (args.before, args.after, args.workload, args.seed):
        p.error("--before, --after, --workload and --seed are required to run pairs")
    if args.pairs <= 0 and not args.out.exists():
        p.error(f"{args.out} does not exist")
    if args.pairs <= 0:
        doc = json.loads(args.out.read_text())
        print("\n".join(summary(doc, json.loads(BENCHMARK.read_text())["end_to_end"])))
        return 0
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
    print("\n".join(summary(doc, json.loads(BENCHMARK.read_text())["end_to_end"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
