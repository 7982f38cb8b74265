"""The four benchmark workloads.

Each workload generates its cases (input files plus numpy references)
from the seed, runs one operation on a case through a user-facing entry
point, and checks the outcome against the references.  A missed gate is a
failure; nothing is skipped or retried.

- simulate: ``qsslsvm simulate`` at m = 12 (the largest m the dense
  channel diagnostic allows); its bench stage (program states plus
  one-shot channel steps) dominates, so a channel-kernel change shows here.
- evolve: ``qsslsvm bench`` at m = 8 with delta = 1e-2, i.e. 900 repeated
  trajectory steps through ``simulate_evolution`` against 12 one-shot
  steps; per-step channel cost dominates here, program-state construction
  dominates simulate.
- train: ``qsslsvm train`` at m = 512 over three kernels and both
  Laplacian kinds; no quantum layer runs, so channel, encoding and HHL
  changes should not move it.
- qsolve: the quantum training route through the library API at m = 24
  without the channel diagnostic; the (m*E)^2 Laplacian encoding dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs as ref

SLOPE_RANGE = (1.8, 2.2)
SOLUTION_FIDELITY_MIN = 0.99
MULTIPLY_FIDELITY_MIN = 0.999
ENCODING_TOL = 1e-12
RESIDUAL_MAX = 1e-8
ALPHA_RTOL = 1e-8
#: Smallest distance, as a share of the filter threshold, between it and
#: any eigenvalue of A/tr(A) in the quantum workloads' datasets.
SPECTRAL_GAP = 0.1


@dataclass
class Case:
    index: int
    dataset: Path
    queries: Path | None
    m: int
    edges: int
    argv: list[str] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one operation produced, as the gates and metrics need it."""

    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _run_cli(qs, argv: list[str]) -> tuple[int, str]:
    """``qsslsvm.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qs.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue()


class CliWorkload:
    """A workload whose operation is one CLI command writing ``--report``."""

    name = ""
    why = ""
    params: dict = {}

    def make_cases(self, rng: np.random.Generator, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def report_path(self, case: Case) -> Path:
        return case.dataset.with_name(f"report-{case.index}.json")

    def prepare(self, case: Case) -> None:
        """Untimed: remove the previous report so a stale one cannot pass."""
        self.report_path(case).unlink(missing_ok=True)

    def run(self, qs, case: Case):
        return _run_cli(qs, case.argv + ["--report", str(self.report_path(case))])

    def check(self, case: Case, result) -> Outcome:
        rc, stderr = result
        out = Outcome()
        if rc != 0:
            out.failures.append(f"exit code {rc}: {stderr.strip()[:300]}")
            return out
        report = json.loads(self.report_path(case).read_text())
        out.stages = {k: float(v) for k, v in report.get("timings", {}).items()}
        self.check_report(case, report, out)
        return out

    def check_report(self, case: Case, report: dict, out: Outcome) -> None:
        raise NotImplementedError


def _linear_case(rng, workdir: Path, index: int, params: dict) -> Case:
    """Two-cluster dataset plus queries, with the quantum route's references.

    Datasets are redrawn while A/tr(A) has an eigenvalue within
    SPECTRAL_GAP of the filter threshold: there the filtered solve jumps
    with the data, so any clock resolution can keep a different eigenspace
    than the classical solve.  With ``edges`` in ``params`` they are also
    redrawn until the k-NN graph has exactly that many edges, which fixes
    the Laplacian encoding's dimension m*E.
    """
    m, p = params["m"], params["p"]
    while True:
        x, labels = ref.two_cluster(rng, m, p, params["labeled_frac"])
        xs, ys = ref.labeled_first(x, labels)
        graph = ref.knn_edges(xs, params["knn"])
        if len(graph) != params.get("edges", len(graph)):
            continue
        k_density = xs @ xs.T / np.sum(xs * xs)
        l_density = ref.laplacian(m, graph, "normalized") / m
        solve = ref.FilteredSolve(k_density, l_density, ys)
        if np.min(np.abs(solve.spectrum - ref.SIGMA)) >= SPECTRAL_GAP * ref.SIGMA:
            break
    q = ref.query_points(rng, params["queries"], p)
    labels_ref, decided = ref.decided_labels(q @ xs.T @ solve.alpha)
    case = Case(index, ref.write_table(workdir / f"data-{index}.csv", x, labels),
                ref.write_table(workdir / f"queries-{index}.csv", q), m, len(graph))
    case.expect = {"k_density": k_density, "l_density": l_density, "alpha": solve.alpha,
                   "ky": k_density @ ys, "labels": labels_ref, "decided": decided}
    return case


def _agreement(labels, refs) -> float:
    return float(np.mean(np.asarray(labels) == refs["labels"]))


def _check_labels(out: Outcome, labels, refs, what: str) -> None:
    labels = np.asarray(labels)
    wrong = np.flatnonzero((labels != refs["labels"]) & refs["decided"])
    out.gate(labels.shape == refs["labels"].shape and wrong.size == 0,
             f"{what} labels differ from the reference at points {wrong[:10].tolist()}")


def _check_slopes(out: Outcome, slopes: dict) -> None:
    for name, slope in slopes.items():
        out.gate(SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1],
                 f"channel {name} slope {slope:.4f} outside {SLOPE_RANGE}")
    out.quality["slope_dev"] = max(abs(s - 2.0) for s in slopes.values())


class Simulate(CliWorkload):
    name = "simulate"
    params = {"command": "qsslsvm simulate", "m": 12, "p": 2, "knn": 3, "labeled_frac": 0.25,
              "queries": 64, "kernel": "linear", "laplacian": "normalized", "datasets": 8,
              "clock_qubits": 10, "delta": 1e-3}
    why = ("qsslsvm simulate, m=12 p=2 k=3, 25% labeled, 64 queries, 10 clock qubits, delta=1e-3,"
           " 8 datasets: program states and one-shot channel steps dominate; channel kernels show")

    def make_cases(self, rng, workdir):
        p = self.params
        cases = [_linear_case(rng, workdir, i, p) for i in range(p["datasets"])]
        for case in cases:
            case.argv = ["simulate", str(case.dataset), "--knn", str(p["knn"]),
                         "--clock-qubits", str(p["clock_qubits"]), "--testset", str(case.queries)]
        return cases

    def check_report(self, case, report, out):
        refs = case.expect
        alpha = np.asarray(report["classical"]["alpha"])
        err = np.linalg.norm(alpha - refs["alpha"]) / np.linalg.norm(refs["alpha"])
        out.gate(err <= ALPHA_RTOL, f"classical alpha off the reference by {err:.3e}")
        q = report["quantum"]
        out.gate(q["solution_fidelity"] >= SOLUTION_FIDELITY_MIN,
                 f"solution fidelity {q['solution_fidelity']:.6f}")
        out.gate(q["multiply_fidelity"] >= MULTIPLY_FIDELITY_MIN,
                 f"multiply fidelity {q['multiply_fidelity']:.6f}")
        _check_slopes(out, report["lmr_slopes"])
        cls = report["classification"]
        _check_labels(out, cls["classical_labels"], refs, "classical")
        out.quality["fidelity"] = q["solution_fidelity"]
        out.quality["agreement"] = _agreement(cls["quantum_labels"], refs)


class Evolve(CliWorkload):
    name = "evolve"
    params = {"command": "qsslsvm bench", "m": 8, "p": 2, "knn": 3, "labeled_frac": 0.25,
              "delta": 1e-2, "time": 1.0, "datasets": 4}
    why = ("qsslsvm bench, m=8 p=2 k=3, delta=1e-2, time=1, 4 datasets: 900 trajectory steps "
           "vs 12 one-shot steps, so per-step channel cost dominates, unlike simulate")

    def make_cases(self, rng, workdir):
        p = self.params
        cases = []
        for i in range(p["datasets"]):
            x, labels = ref.two_cluster(rng, p["m"], p["p"], p["labeled_frac"])
            xs, _ = ref.labeled_first(x, labels)
            edges = len(ref.knn_edges(xs, p["knn"]))
            path = ref.write_table(workdir / f"data-{i}.csv", x, labels)
            case = Case(i, path, None, p["m"], edges)
            case.argv = ["bench", str(path), "--knn", str(p["knn"]), "--delta", str(p["delta"]),
                         "--time", str(p["time"])]
            case.expect = {"steps": math.ceil(p["time"] ** 2 / p["delta"])}
            cases.append(case)
        return cases

    def check_report(self, case, report, out):
        _check_slopes(out, report["slopes"])
        limit = 10 * self.params["delta"]
        for name, traj in report["trajectory"].items():
            out.gate(traj["steps"] == case.expect["steps"],
                     f"channel {name} ran {traj['steps']} steps, expected {case.expect['steps']}")
            out.gate(traj["error"] <= limit,
                     f"channel {name} trajectory error {traj['error']:.3e} above {limit}")


class Train(CliWorkload):
    name = "train"
    params = {"command": "qsslsvm train", "m": 512, "p": 8, "knn": 5, "labeled_frac": 0.10,
              "queries": 512, "kernels": ["linear", "poly:2,1", "rbf:2"],
              "laplacians": ["normalized", "combinatorial"]}
    why = ("qsslsvm train, m=512 p=8 k=5, 10% labeled, 512 queries, kernels linear/poly:2,1/"
           "rbf:2 x both Laplacians: k-NN graph and eigensolve only, no quantum layer runs")

    def make_cases(self, rng, workdir):
        p = self.params
        variants = [(k, lap) for k in p["kernels"] for lap in p["laplacians"]]
        cases = []
        for i, (kernel, kind) in enumerate(variants):
            x, labels = ref.two_cluster(rng, p["m"], p["p"], p["labeled_frac"])
            q = ref.query_points(rng, p["queries"], p["p"])
            xs, ys = ref.labeled_first(x, labels)
            graph = ref.knn_edges(xs, p["knn"])
            solve = ref.FilteredSolve(ref.gram(xs, xs, kernel),
                                      ref.laplacian(p["m"], graph, kind), ys)
            labels_ref, decided = ref.decided_labels(ref.gram(q, xs, kernel) @ solve.alpha)
            case = Case(i, ref.write_table(workdir / f"data-{i}.csv", x, labels),
                        ref.write_table(workdir / f"queries-{i}.csv", q), p["m"], len(graph))
            case.argv = ["train", str(case.dataset), "--knn", str(p["knn"]), "--kernel", kernel,
                         "--laplacian", kind, "--testset", str(case.queries)]
            case.expect = {"solve": solve, "labels": labels_ref, "decided": decided}
            cases.append(case)
        return cases

    def check_report(self, case, report, out):
        residual = case.expect["solve"].retained_residual(np.asarray(report["alpha"]))
        out.gate(residual <= RESIDUAL_MAX, f"retained residual {residual:.3e} above {RESIDUAL_MAX}")
        out.quality["residual"] = residual
        _check_labels(out, report["predictions"]["labels"], case.expect, "predicted")


class QSolve:
    """The quantum route through the public library API, no channel diagnostic."""

    name = "qsolve"
    params = {"api": "load_dataset..classify", "m": 24, "p": 4, "knn": 3, "labeled_frac": 0.25,
              "queries": 256, "edges": 50, "datasets": 4, "clock_qubits": 10}
    why = ("library chain load_dataset..hhl_solve..classify, m=24 p=4 k=3, E=50, 25% labeled, 256"
           " queries, 10 clock qubits, 4 datasets: the (m*E)^2 Laplacian encoding dominates")

    def make_cases(self, rng, workdir):
        return [_linear_case(rng, workdir, i, self.params)
                for i in range(self.params["datasets"])]

    def prepare(self, case):
        pass

    def run(self, qs, case):
        p = self.params
        training = qs.load_dataset(case.dataset)
        graph = qs.build_knn_graph(training, p["knn"])
        k_density = qs.kernel_density(training)
        l_density = qs.laplacian_density(graph)
        y_state = qs.label_state(training.labels)
        system = qs.assemble_system(k_density.matrix.real, l_density.matrix.real,
                                    training.labels, ref.GAMMA)
        model = qs.solve_classical(system, ref.SIGMA, kernel=qs.KernelSpec("linear"),
                                   training_features=training.features)
        qpe = qs.QPEConfig(clock_qubits=p["clock_qubits"])
        ky_state = qs.quantum_multiply(k_density, y_state, qpe)
        solution = qs.hhl_solve(system.normalized_matrix(), ky_state, ref.SIGMA, qpe)
        # the solution state's global phase is unobservable; align it with
        # the classical coefficients before reading out labels
        amps = solution.solution_state.amplitudes
        alpha_unit = model.alpha / np.linalg.norm(model.alpha)
        alpha_q = np.real(amps * np.exp(1j * np.angle(np.vdot(amps, alpha_unit))))
        labels = [qs.classify(alpha_q, point, training).label
                  for point in qs.load_points(case.queries)]
        return {"k_density": k_density.matrix, "l_density": l_density.matrix,
                "ky": ky_state.amplitudes, "solution": amps, "labels": labels}

    def check(self, case, result):
        refs = case.expect
        out = Outcome()
        for key in ("k_density", "l_density"):
            dev = float(np.max(np.abs(result[key] - refs[key])))
            out.gate(dev <= ENCODING_TOL, f"{key} off its closed form by {dev:.3e}")
        f_mul = ref.fidelity(result["ky"], refs["ky"])
        f_sol = ref.fidelity(result["solution"], refs["alpha"])
        out.gate(f_mul >= MULTIPLY_FIDELITY_MIN, f"multiply fidelity {f_mul:.6f}")
        out.gate(f_sol >= SOLUTION_FIDELITY_MIN, f"solution fidelity {f_sol:.6f}")
        out.quality["fidelity"] = f_sol
        out.quality["agreement"] = _agreement(result["labels"], refs)
        return out


WORKLOADS = {w.name: w for w in (Simulate(), Evolve(), Train(), QSolve())}

#: The capability sweep: sizes at which ``simulate`` is attempted, untimed.
SWEEP_M = (8, 12, 13, 16, 24, 32)


def simulate_sweep(qs, rng, workdir: Path) -> list[dict]:
    """Run the simulate pipeline once per m in SWEEP_M and record whether it
    completes, or the stage tag and error type that stopped it."""
    p = WORKLOADS["simulate"].params
    rows = []
    for m in SWEEP_M:
        x, labels = ref.two_cluster(rng, m, p["p"], p["labeled_frac"])
        data = ref.write_table(workdir / f"sweep-{m}.csv", x, labels)
        queries = ref.write_table(workdir / f"sweep-{m}-q.csv",
                                  ref.query_points(rng, p["queries"], p["p"]))
        try:
            qs.run_pipeline(qs.RunConfig(knn_k=p["knn"], clock_qubits=p["clock_qubits"]),
                            data, queries)
        except (qs.errors.InputError, qs.errors.NumericalError) as exc:
            rows.append({"m": m, "status": "unsupported", **_error_record(exc)})
        except Exception as exc:  # recorded, not gated: the sweep only reports capability
            rows.append({"m": m, "status": "crash", **_error_record(exc)})
        else:
            rows.append({"m": m, "status": "ok"})
    return rows


def _error_record(exc: Exception) -> dict:
    message = str(exc)
    stage = message[1:message.index("]")] if message.startswith("[") and "]" in message else None
    return {"stage": stage, "error": type(exc).__name__, "message": message[:200]}


def max_supported_m(rows: list[dict]) -> int:
    return max((r["m"] for r in rows if r["status"] == "ok"), default=0)
