"""End-to-end orchestration: training runs, channel benchmarks, the
complexity cost model, and structured JSON reports.

``run_pipeline`` executes the full quantum-simulated training pass --
density encodings, quantum matrix multiplication for |Ky>, eigenvalue-
filtered inversion for |alpha>, overlap-readout classification -- and
verifies every stage against the classical solver on the identical
normalized matrix, including the matrix the program-state mixture
simulates.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .channels import (
    EvolutionConfig,
    ProgramState,
    exact_conjugation,
    glmr_step,
    make_program_state_k,
    make_program_state_kk,
    make_program_state_klk,
    mix_program_states,
    simulate_evolution,
)
from .classical import (
    KernelSpec,
    assemble_system,
    kernel_matrix,
    objective_gradient,
    predict,
    solve_classical,
)
from .datasets import (
    SampleGraph,
    TrainingSet,
    build_knn_graph,
    laplacian,
    load_dataset,
    load_graph,
    load_points,
)
from .encodings import DensityMatrix, kernel_density, label_state, laplacian_density
from .errors import ConfigurationError, LayoutError, NumericalError, ParameterError
from .hhl import QPEConfig, hhl_solve, quantum_multiply
from .linalg import SpectralDecomposition, hermitian_eig, state_fidelity
from .swap_test import classify

SCHEMA_VERSION = 3

#: Largest entrywise deviation allowed between the matrix the program-state
#: mixture simulates and the classical A/tr(A); both are built from the same
#: densities, so anything above roundoff means the two routes diverged.
_A_HAT_TOL = 1e-12

#: One-step dt sweep of the channel error-slope diagnostic.
_DT_SWEEP = (0.2, 0.1, 0.05, 0.025)

#: Published schema for ``simulate`` reports (draft-07 subset).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "config",
        "dataset",
        "classical",
        "quantum",
        "classification",
        "lmr_slopes",
        "timings",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"const": "simulate"},
        "config": {"type": "object"},
        "dataset": {
            "type": "object",
            "required": ["m", "p", "labeled", "edges"],
            "properties": {
                "m": {"type": "integer"},
                "p": {"type": "integer"},
                "labeled": {"type": "integer"},
                "edges": {"type": "integer"},
            },
        },
        "classical": {
            "type": "object",
            "required": ["alpha", "residual_retained"],
            "properties": {
                "alpha": {"type": "array", "items": {"type": "number"}},
                "residual_retained": {"type": "number"},
                "gradient_norm": {"type": "number"},
            },
        },
        "quantum": {
            "type": "object",
            "required": [
                "solution_fidelity",
                "multiply_fidelity",
                "hhl_success_probability",
                "retained_eigenvalues",
                "a_hat_deviation",
            ],
            "properties": {
                "solution_fidelity": {"type": "number", "minimum": 0, "maximum": 1},
                "multiply_fidelity": {"type": "number", "minimum": 0, "maximum": 1},
                "hhl_success_probability": {"type": "number", "minimum": 0, "maximum": 1},
                "retained_eigenvalues": {"type": "array", "items": {"type": "number"}},
                "a_hat_deviation": {"type": "number", "minimum": 0},
            },
        },
        "classification": {
            "type": "object",
            "required": ["agreement", "classical_labels", "quantum_labels"],
            "properties": {
                "agreement": {"type": "number", "minimum": 0, "maximum": 1},
                "classical_labels": {"type": "array", "items": {"type": "integer"}},
                "quantum_labels": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "lmr_slopes": {
            "type": "object",
            "required": ["k", "kk", "klk"],
            "properties": {
                "k": {"type": "number"},
                "kk": {"type": "number"},
                "klk": {"type": "number"},
            },
        },
        "timings": {"type": "object"},
    },
}


@dataclass(frozen=True)
class RunConfig:
    """User-facing knobs of a pipeline run."""

    gamma: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    knn_k: int = 3
    graph_path: str | None = None
    sigma_thresh: float = 0.05
    clock_qubits: int = 8
    delta: float = 1e-3
    shots: int = 0
    seed: int = 42
    laplacian_kind: str = "normalized"

    def __post_init__(self):
        for name in ("gamma", "sigma_thresh", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and positive, got {value}")
        if self.graph_path is None and self.knn_k < 1:
            raise ParameterError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.shots < 0:
            raise ParameterError(f"shots must be >= 0, got {self.shots}")
        if self.laplacian_kind not in ("normalized", "combinatorial"):
            raise ParameterError(f"unknown Laplacian kind {self.laplacian_kind!r}")
        # range checks for clock_qubits are enforced by QPEConfig
        QPEConfig(clock_qubits=self.clock_qubits)


class _Stages:
    """Per-stage wall-clock timing; errors propagate tagged with the stage.

    A stage's exception is re-raised as the same object, so its type and
    attributes (``ParseError.line``, ``OSError.errno``) survive.  Its
    ``stage`` attribute names the stage, and so does a leading ``[stage] ``
    in its message, except for an ``OSError`` that Python formats from its
    errno and file name.
    """

    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            exc.stage = name
            exc.args = (f"[{name}] {exc}",)
            raise
        self.timings[name] = time.perf_counter() - start
        return result


def _build_graph(cfg: RunConfig, training: TrainingSet) -> SampleGraph:
    if cfg.graph_path is not None:
        g = load_graph(cfg.graph_path)
        if g.vertex_count != training.sample_count:
            raise ParameterError(
                f"graph has {g.vertex_count} vertices, dataset has "
                f"{training.sample_count} samples"
            )
        return g
    return build_knn_graph(training, cfg.knn_k)


def _load_testset(testset: str | Path, training: TrainingSet) -> np.ndarray:
    """Test points, with as many features as the training set."""
    points = load_points(testset)
    if points.shape[1] != training.feature_count:
        raise LayoutError(
            f"test points have {points.shape[1]} features, dataset has "
            f"{training.feature_count}"
        )
    return points


def _program_states(k_density: DensityMatrix, l_density: DensityMatrix) -> dict:
    """The three program states of the training generator, by term."""
    return {
        "k": make_program_state_k(k_density),
        "kk": make_program_state_kk(k_density),
        "klk": make_program_state_klk(k_density, l_density),
    }


def _a_hat_deviation(states: dict, gamma: float, a_hat: np.ndarray) -> float:
    """Max entrywise gap between the trace-normalized generator of the
    1/gamma, 1, 1/gamma mixture over K, KK, KLK and the classical A/tr(A);
    above ``_A_HAT_TOL`` raises ``NumericalError``."""
    weights = {"k": 1.0 / gamma, "kk": 1.0, "klk": 1.0 / gamma}
    mixture = mix_program_states([(weights[name], ps) for name, ps in states.items()])
    generator = mixture.generator
    deviation = float(np.max(np.abs(generator / np.trace(generator) - a_hat)))
    if deviation > _A_HAT_TOL:
        raise NumericalError(
            f"the program-state mixture simulates a matrix {deviation:.3e} away from "
            f"the classical A/tr(A) (tolerance {_A_HAT_TOL:g})"
        )
    return deviation


def _probe_state(d: int, seed: int) -> DensityMatrix:
    """Seeded random pure state, the target of the channel diagnostics."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec /= np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()))


def _one_step_errors(
    ps: ProgramState, eig: SpectralDecomposition, probe: DensityMatrix, dts: tuple[float, ...]
) -> tuple[list[float], float]:
    """One-step errors of ``ps`` on ``probe`` over ``dts`` against exact
    conjugation under its generator's decomposition ``eig``, and their
    log-log slope."""
    errs = [float(np.linalg.norm(glmr_step(ps, probe, dt).matrix
                                 - exact_conjugation(eig, probe, dt).matrix)) for dt in dts]
    return errs, float(np.polyfit(np.log(np.asarray(dts)), np.log(errs), 1)[0])


def run_pipeline(cfg: RunConfig, dataset: str | Path, testset: str | Path | None = None) -> dict:
    """Full quantum-simulated training run verified against the classical
    solver on the identical normalized system matrix; returns the
    ``simulate`` report (:data:`REPORT_SCHEMA`)."""
    if cfg.kernel.kind != "linear":
        raise ConfigurationError(
            "the quantum pipeline encodes the linear kernel only; "
            "use the classical trainer for polynomial or rbf kernels"
        )
    if cfg.laplacian_kind != "normalized":
        raise ConfigurationError(
            "the quantum graph input model produces the degree-normalized "
            "Laplacian; the combinatorial kind is classical-only"
        )
    stages = _Stages()
    training = stages.run("ingest", lambda: load_dataset(dataset))
    points = training.features
    if testset is not None:
        points = stages.run("testset", lambda: _load_testset(testset, training))
    graph = stages.run("graph", lambda: _build_graph(cfg, training))

    k_density = stages.run("encode_kernel", lambda: kernel_density(training))
    l_density = stages.run("encode_laplacian", lambda: laplacian_density(graph))
    y_state = stages.run("encode_labels", lambda: label_state(training.labels))

    def _classical():
        sysq = assemble_system(k_density.matrix, l_density.matrix, training.labels, cfg.gamma)
        model = solve_classical(
            sysq, cfg.sigma_thresh, kernel=cfg.kernel, training_features=training.features
        )
        return sysq, model

    sysq, model = stages.run("classical", _classical)

    def _quantum_matrix():
        states = _program_states(k_density, l_density)
        spectra = {name: hermitian_eig(ps.generator) for name, ps in states.items()}
        return states, spectra, _a_hat_deviation(states, cfg.gamma, sysq.normalized_matrix())

    states, spectra, a_hat_deviation = stages.run("program_states", _quantum_matrix)

    qpe_cfg = QPEConfig(clock_qubits=cfg.clock_qubits)
    # the k program state's generator is K itself (rho0 = K, rho1 = 0)
    ky_state = stages.run("multiply", lambda: quantum_multiply(spectra["k"], y_state, qpe_cfg))
    ky_exact = k_density.matrix @ training.labels
    multiply_fidelity = state_fidelity(ky_state.amplitudes, ky_exact / np.linalg.norm(ky_exact))

    hhl_result = stages.run(
        "invert", lambda: hhl_solve(sysq.spectrum, ky_state, cfg.sigma_thresh, qpe_cfg)
    )
    alpha_classical = model.alpha
    alpha_unit = alpha_classical / np.linalg.norm(alpha_classical)
    solution_fidelity = state_fidelity(hhl_result.solution_state.amplitudes, alpha_unit)

    def _classify():
        # the solution state's global phase is unobservable; align it with
        # the classical reference before reading out labels
        amps = hhl_result.solution_state.amplitudes
        phase = np.vdot(amps, alpha_unit)
        alpha_quantum = np.real(amps * np.exp(1j * np.angle(phase)))
        classical_labels, quantum_labels, p_estimates, ambiguous = [], [], [], 0
        for i, point in enumerate(points):
            classical_labels.append(predict(model, point)[1])
            result = classify(
                alpha_quantum, point, training, shots=cfg.shots, seed=cfg.seed + i
            )
            quantum_labels.append(result.label)
            p_estimates.append(result.p_estimate)
            ambiguous += int(result.ambiguous)
        agreement = float(
            np.mean([c == q for c, q in zip(classical_labels, quantum_labels)])
        )
        return {
            "agreement": agreement,
            "test_point_count": len(points),
            "classical_labels": classical_labels,
            "quantum_labels": quantum_labels,
            "p_estimates": p_estimates,
            "ambiguous_count": ambiguous,
        }

    classification = stages.run("classify", _classify)

    def _bench():
        probe = _probe_state(training.sample_count, cfg.seed)
        return {name: _one_step_errors(ps, spectra[name], probe, _DT_SWEEP)[1]
                for name, ps in states.items()}

    slopes = stages.run("bench", _bench)

    # residual restricted to the retained eigenspace of A/tr(A)
    keep = sysq.spectrum.eigenvectors[:, sysq.spectrum.eigenvalues >= cfg.sigma_thresh]
    resid_vec = sysq.a_matrix @ alpha_classical - sysq.rhs
    rhs_proj = keep.T @ sysq.rhs
    residual_retained = float(
        np.linalg.norm(keep.T @ resid_vec) / max(np.linalg.norm(rhs_proj), 1e-30)
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulate",
        "config": {**asdict(cfg), "dataset": str(dataset),
                   "testset": None if testset is None else str(testset)},
        "dataset": {
            "m": training.sample_count,
            "p": training.feature_count,
            "labeled": training.labeled_count,
            "edges": graph.edge_count,
        },
        "classical": {
            "alpha": [float(a) for a in alpha_classical],
            "residual_retained": residual_retained,
            "gradient_norm": float(np.linalg.norm(objective_gradient(sysq, alpha_classical))),
        },
        "quantum": {
            "solution_fidelity": float(solution_fidelity),
            "multiply_fidelity": float(multiply_fidelity),
            "hhl_success_probability": float(hhl_result.success_probability),
            "retained_eigenvalues": [float(v) for v in hhl_result.retained_eigenvalues],
            "a_hat_deviation": a_hat_deviation,
        },
        "classification": classification,
        "lmr_slopes": slopes,
        "timings": stages.timings,
    }


def run_classical(cfg: RunConfig, dataset: str | Path, testset: str | Path | None = None) -> dict:
    """Classical-only training run (any kernel, either Laplacian kind)."""
    stages = _Stages()
    training = stages.run("ingest", lambda: load_dataset(dataset))
    points = None
    if testset is not None:
        points = stages.run("testset", lambda: _load_testset(testset, training))
    graph = stages.run("graph", lambda: _build_graph(cfg, training))
    lap = stages.run("laplacian", lambda: laplacian(graph, cfg.laplacian_kind))

    def _train():
        k = kernel_matrix(training, cfg.kernel)
        sys = assemble_system(k, lap, training.labels, cfg.gamma)
        model = solve_classical(
            sys, cfg.sigma_thresh, kernel=cfg.kernel, training_features=training.features
        )
        return sys, model

    sys, model = stages.run("train", _train)
    resid = np.linalg.norm(sys.a_matrix @ model.alpha - sys.rhs)
    rhs_norm = np.linalg.norm(sys.rhs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "train",
        "config": {**asdict(cfg), "dataset": str(dataset),
                   "testset": None if testset is None else str(testset)},
        "dataset": {
            "m": training.sample_count,
            "p": training.feature_count,
            "labeled": training.labeled_count,
            "edges": graph.edge_count,
        },
        "alpha": [float(a) for a in model.alpha],
        "residual": float(resid / max(rhs_norm, 1e-30)),
        "gradient_norm": float(np.linalg.norm(objective_gradient(sys, model.alpha))),
    }
    if points is not None:
        scored = [predict(model, pt) for pt in points]
        report["predictions"] = {
            "scores": [float(s) for s, _ in scored],
            "labels": [int(l) for _, l in scored],
        }
    report["timings"] = stages.timings
    return report


def bench_lmr(
    cfg: RunConfig,
    dataset: str | Path,
    dts: tuple[float, ...] = _DT_SWEEP,
    total_time: float = 1.0,
) -> dict:
    """Channel error-scaling report: per-term one-step slopes and
    trajectory errors at n and 2n steps (n = ceil(t^2/delta))."""
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ParameterError(f"every dt must be finite and positive, got {list(dts)}")
    if len(set(dts)) < 3:
        raise ParameterError(f"dt sweep needs at least 3 distinct points, got {list(dts)}")
    if not (math.isfinite(total_time) and total_time > 0):
        raise ParameterError(f"total time must be finite and positive, got {total_time}")
    n = EvolutionConfig(total_time, cfg.delta).resolved_steps()
    stages = _Stages()
    training = stages.run("ingest", lambda: load_dataset(dataset))
    graph = stages.run("graph", lambda: _build_graph(cfg, training))
    states = _program_states(kernel_density(training), laplacian_density(graph))
    sigma0 = _probe_state(training.sample_count, cfg.seed)
    sweeps, slopes, trajectory = {}, {}, {}
    for name, ps in states.items():
        # one decomposition serves the dt sweep and the exact final state
        eig = hermitian_eig(ps.generator)
        sweeps[name], slopes[name] = _one_step_errors(ps, eig, sigma0, dts)
        exact_final = exact_conjugation(eig, sigma0, total_time)
        del eig  # not held through the trajectories, which set the peak memory
        errors = {}
        for steps in (n, 2 * n):
            run = simulate_evolution(
                [(1.0, ps)], sigma0, EvolutionConfig(total_time, cfg.delta, steps)
            )
            errors[steps] = float(np.linalg.norm(run.state.matrix - exact_final.matrix))
        trajectory[name] = {
            "steps": n,
            "error": errors[n],
            "error_double_steps": errors[2 * n],
            "halving_ratio": errors[n] / max(errors[2 * n], 1e-300),
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "config": {**asdict(cfg), "dataset": str(dataset)},
        "dt_values": list(dts),
        "errors": sweeps,
        "slopes": slopes,
        "trajectory": trajectory,
        "timings": stages.timings,
    }


@dataclass(frozen=True)
class CostModelParams:
    """Inputs of the asymptotic cost comparison.

    ``q`` is the retained rank of the normalized matrix (the filter
    threshold for the diagonal rank-q family is 1/q); ``eta`` and
    ``delta_fail`` only enter the sampling-based classical bound and
    default to neutral constants.
    """

    m: int
    p: int
    q: int
    epsilon: float
    eta: float = 1.0
    delta_fail: float = 1.0

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ParameterError("m and p must be >= 1")
        if not 1 <= self.q <= self.m:
            raise ParameterError(f"q must be in [1, m={self.m}], got {self.q}")
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not self.eta > 0 or not 0 < self.delta_fail <= 1:
            raise ParameterError("eta must be positive and delta_fail in (0, 1]")


def cost_model(params: CostModelParams) -> dict:
    """Asymptotic costs of the quantum trainer and its sampling-based
    classical counterpart on the diagonal rank-q family.

    quantum:      q^3 eps^-3 log(m p)
    dequantized:  q^9 eps^-6 eta^6 log^3(1/delta_fail)

    The log^3 factor is floored at 1 so the neutral default
    delta_fail = 1 contributes a constant instead of annihilating the
    bound.  Regimes: full rank (q = m), constant rank (q = 1), and slow
    growth in between.
    """
    q, eps = params.q, params.epsilon
    quantum = q**3 * eps**-3 * math.log(params.m * params.p)
    log_fail = max(1.0, math.log(1.0 / params.delta_fail) ** 3)
    dequantized = q**9 * eps**-6 * params.eta**6 * log_fail
    if params.q == params.m:
        regime = "full_rank"
    elif params.q == 1:
        regime = "constant_rank"
    else:
        regime = "slow_growth"
    return {
        "quantum_cost": float(quantum),
        "dequantized_cost": float(dequantized),
        "regime": regime,
    }


def emit_report(report: dict, path: str | Path) -> Path:
    """Write a report as JSON with stable key order.

    ``simulate`` reports are validated against :data:`REPORT_SCHEMA`
    before writing.  I/O failures surface as ``OSError`` with the path.
    """
    if report.get("kind") == "simulate":
        import jsonschema

        jsonschema.Draft7Validator(REPORT_SCHEMA).validate(report)
    path = Path(path)
    try:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def load_report(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)
