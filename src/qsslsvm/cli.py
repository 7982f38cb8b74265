"""Command-line interface.

Subcommands: ``train`` (classical solve only), ``simulate`` (full
quantum-simulated pipeline with verification), ``bench`` (channel error
scaling), and ``costmodel`` (asymptotic cost comparison).

Exit codes: 0 success, 2 input or parse error, 3 numerical or degenerate
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .classical import KernelSpec
from .errors import InputError, NumericalError, ParameterError
from .pipeline import (
    CostModelParams,
    RunConfig,
    bench_lmr,
    cost_model,
    emit_report,
    run_classical,
    run_pipeline,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_run_flags(p: argparse.ArgumentParser, quantum: bool) -> None:
    p.add_argument("dataset", help="delimited text file with header f1,...,fp,label")
    p.add_argument("--gamma", type=float, default=1.0, help="regularization weight (default 1)")
    p.add_argument(
        "--kernel", default="linear", metavar="SPEC",
        help="linear | poly:d,c | rbf:w (default linear)",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--knn", type=int, default=3, metavar="K",
                       help="build a symmetric k-nearest-neighbor graph (default k=3)")
    group.add_argument("--graph", default=None, metavar="FILE",
                       help='JSON adjacency list {"m": int, "edges": [[i,j],...]}')
    p.add_argument("--sigma-thresh", type=float, default=0.05,
                   help="eigenvalue filter threshold on A/tr(A) (default 0.05)")
    p.add_argument("--laplacian", choices=("normalized", "combinatorial"),
                   default="normalized", help="Laplacian kind (default normalized)")
    p.add_argument("--testset", default=None, metavar="FILE",
                   help="points to classify, same format (label column optional)")
    p.add_argument("--report", default=None, metavar="OUT.json", help="write a JSON report")
    if quantum:
        p.add_argument("--clock-qubits", type=int, default=8,
                       help="phase-estimation clock size (default 8)")
        p.add_argument("--delta", type=float, default=1e-3,
                       help="channel simulation error budget (default 1e-3)")
        p.add_argument("--shots", type=int, default=0,
                       help="swap-test shots; 0 = analytic (default)")
        p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        gamma=args.gamma,
        kernel=KernelSpec.parse(args.kernel),
        knn_k=args.knn,
        graph_path=args.graph,
        sigma_thresh=args.sigma_thresh,
        clock_qubits=getattr(args, "clock_qubits", 8),
        delta=getattr(args, "delta", 1e-3),
        shots=getattr(args, "shots", 0),
        seed=getattr(args, "seed", 42),
        laplacian_kind=args.laplacian,
    )


def _cmd_train(args) -> int:
    report = run_classical(_config(args), args.dataset, args.testset)
    print(f"samples: {report['dataset']['m']}  labeled: {report['dataset']['labeled']}"
          f"  edges: {report['dataset']['edges']}")
    print(f"residual: {report['residual']:.3e}  gradient norm: {report['gradient_norm']:.3e}")
    if "predictions" in report:
        print("predicted labels:", " ".join(f"{l:+d}" for l in report["predictions"]["labels"]))
    if args.report:
        emit_report(report, args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    report = run_pipeline(_config(args), args.dataset, args.testset)
    data, q, cls = report["dataset"], report["quantum"], report["classification"]
    print(f"samples: {data['m']}  labeled: {data['labeled']}  edges: {data['edges']}")
    print(f"multiply fidelity:   {q['multiply_fidelity']:.6f}")
    print(f"solution fidelity:   {q['solution_fidelity']:.6f}")
    print(f"success probability: {q['hhl_success_probability']:.6f}")
    print(f"prediction agreement: {cls['agreement']:.4f} "
          f"over {cls['test_point_count']} points")
    slopes = report["lmr_slopes"]
    print(f"channel slopes: k={slopes['k']:.3f} kk={slopes['kk']:.3f} klk={slopes['klk']:.3f}")
    if args.report:
        emit_report(report, args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        dts = tuple(float(v) for v in args.dt.split(","))
    except ValueError:
        raise ParameterError(f"--dt must be comma-separated numbers, got {args.dt!r}") from None
    report = bench_lmr(_config(args), args.dataset, dts=dts, total_time=args.time)
    for name in ("k", "kk", "klk"):
        traj = report["trajectory"][name]
        print(f"{name:>3}: slope {report['slopes'][name]:.3f}  "
              f"trajectory error {traj['error']:.3e} at {traj['steps']} steps  "
              f"halving ratio {traj['halving_ratio']:.2f}")
    if args.report:
        emit_report(report, args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_costmodel(args) -> int:
    params = CostModelParams(
        m=args.m, p=args.p, q=args.q, epsilon=args.epsilon,
        eta=args.eta, delta_fail=args.delta_fail,
    )
    result = cost_model(params)
    print(f"regime: {result['regime']}")
    print(f"quantum cost:     {result['quantum_cost']:.6e}")
    print(f"dequantized cost: {result['dequantized_cost']:.6e}")
    if args.report:
        doc = {"schema_version": 1, "kind": "costmodel",
               "params": {"m": args.m, "p": args.p, "q": args.q, "epsilon": args.epsilon,
                          "eta": args.eta, "delta_fail": args.delta_fail},
               **result}
        emit_report(doc, args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsslsvm",
        description="Semi-supervised least-squares kernel SVM with a "
                    "density-matrix simulation of its quantum training pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="classical solve only")
    _add_run_flags(p_train, quantum=False)
    p_train.set_defaults(fn=_cmd_train)

    p_sim = sub.add_parser("simulate", help="full quantum-simulated pipeline + verification")
    _add_run_flags(p_sim, quantum=True)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="channel error-scaling benchmark")
    _add_run_flags(p_bench, quantum=True)
    p_bench.add_argument("--dt", default="0.2,0.1,0.05,0.025",
                         help="comma-separated dt sweep (default 0.2,0.1,0.05,0.025)")
    p_bench.add_argument("--time", type=float, default=1.0,
                         help="trajectory total time (default 1.0)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_cost = sub.add_parser("costmodel", help="asymptotic cost comparison")
    p_cost.add_argument("--m", type=int, required=True, help="sample count")
    p_cost.add_argument("--p", type=int, required=True, help="feature count")
    p_cost.add_argument("--q", type=int, required=True, help="retained rank")
    p_cost.add_argument("--epsilon", type=float, required=True, help="target error in (0,1)")
    p_cost.add_argument("--eta", type=float, default=1.0)
    p_cost.add_argument("--delta-fail", type=float, default=1.0)
    p_cost.add_argument("--report", default=None, metavar="OUT.json")
    p_cost.set_defaults(fn=_cmd_costmodel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        stage = getattr(exc, "stage", None)
        where = "" if stage is None or str(exc).startswith(f"[{stage}] ") else f"[{stage}] "
        print(f"i/o error: {where}{exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
