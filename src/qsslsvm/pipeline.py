"""End-to-end orchestration: training runs, channel benchmarks, the
complexity cost model, and structured JSON reports.

``run_pipeline`` executes the full quantum-simulated training pass --
density encodings, quantum matrix multiplication for |Ky>, eigenvalue-
filtered inversion for |alpha>, overlap-readout classification -- and
verifies every stage against the classical solver on the identical
normalized matrix.  That system is ``train``'s factored assembly
(``assemble_factored``) over K's factor F and L/m, and the program states
come from the dense terms of ``generator_terms``: the check of the matrix
their mixture simulates compares two independent routes.
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
    generator_terms,
    make_program_state,
    mix_program_states,
    simulate_evolution,
)
from .classical import (
    KernelSpec,
    assemble_factored,
    objective_gradient,
    predict,
    solve_classical,
    train_semi_supervised,
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
from .encodings import (
    DensityMatrix,
    StateVector,
    kernel_density,
    kernel_factor,
    label_state,
    laplacian_density,
)
from .errors import ConfigurationError, LayoutError, NumericalError, ParameterError
from .hhl import QPEConfig, hhl_solve, quantum_multiply
from .linalg import state_fidelity
from .swap_test import _nonnegative_int, classify

SCHEMA_VERSION = 3

#: Largest entrywise deviation allowed between the matrix the program-state
#: mixture simulates and the classical A/tr(A), two routes over the same
#: densities: anything above roundoff means one of them is wrong.
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
        # the checks and messages of classify's shots and seed
        object.__setattr__(self, "shots", _nonnegative_int("shots", self.shots))
        object.__setattr__(self, "seed", _nonnegative_int("seed", self.seed))
        if self.laplacian_kind not in ("normalized", "combinatorial"):
            raise ParameterError(f"unknown Laplacian kind {self.laplacian_kind!r}")
        # QPEConfig checks clock_qubits and normalizes an integral float to int
        object.__setattr__(self, "clock_qubits", QPEConfig(self.clock_qubits).clock_qubits)


class _Stages:
    """Per-stage wall-clock timing; errors propagate tagged with the stage.

    A stage's exception is re-raised as the same object, so its type and
    attributes (``ParseError.line``, ``OSError.errno``) survive.  Its
    ``stage`` attribute names the stage, and so does a leading ``[stage] ``
    in its message, except for an ``OSError`` that Python formats from its
    errno and file name.  A stage run in several pieces is timed by their
    sum.
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
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start
        return result


def _front_end(
    stages: _Stages, cfg: RunConfig, dataset: str | Path, testset: str | Path | None = None,
    nonzero_points: bool = False,
) -> tuple[TrainingSet, np.ndarray, SampleGraph]:
    """The ``ingest``, optional ``testset`` and ``graph`` stages of every run:
    training set, test points (default: the training points) and graph.
    ``nonzero_points`` rejects a test point of zero norm, which the
    quantum readout cannot encode."""
    training = stages.run("ingest", lambda: load_dataset(dataset))

    def _test_points():
        points = load_points(testset, nonzero=nonzero_points)
        if points.shape[1] != training.feature_count:
            raise LayoutError(f"test points have {points.shape[1]} features, "
                              f"dataset has {training.feature_count}")
        return points

    def _graph():
        if cfg.graph_path is None:
            return build_knn_graph(training, cfg.knn_k)
        g = load_graph(cfg.graph_path)
        if g.vertex_count != training.sample_count:
            raise ParameterError(f"graph has {g.vertex_count} vertices, "
                                 f"dataset has {training.sample_count} samples")
        return g

    points = training.features if testset is None else stages.run("testset", _test_points)
    return training, points, stages.run("graph", _graph)


def _report_header(
    kind: str, cfg: RunConfig, dataset: str | Path, testset: str | Path | None,
    training: TrainingSet, graph: SampleGraph,
) -> dict:
    """The ``schema_version``, ``kind``, ``config`` and ``dataset`` report head."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": {**asdict(cfg), "dataset": str(dataset),
                   "testset": None if testset is None else str(testset)},
        "dataset": {
            "m": training.sample_count,
            "p": training.feature_count,
            "labeled": training.labeled_count,
            "edges": graph.edge_count,
        },
    }


def _program_states(terms: dict) -> dict:
    """The program state of each of the ``generator_terms``, by term.  K K's
    carries K's decomposition squared, so K is decomposed here."""
    states = {name: make_program_state(terms["k"], g) for name, g in terms.items()}
    kk = states["kk"]
    states["kk"] = ProgramState._built(kk.rho0, kk.rho1, states["k"].spectrum.squared())
    return states


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


def _probe_state(d: int, seed: int) -> StateVector:
    """Seeded random unit vector |v>, whose pure state |v><v| is the target
    of the channel diagnostics."""
    rng = np.random.default_rng(seed)
    return StateVector.normalized(rng.normal(size=d) + 1j * rng.normal(size=d))


def _one_step_errors(
    term: str, ps: ProgramState, probe: StateVector, dts: tuple[float, ...],
) -> tuple[list[float], float]:
    """Frobenius errors of one ``ps`` step on P = |v><v| (``probe``) over
    ``dts`` against exact conjugation under the generator B (decomposed
    by ``ps.spectrum``), and their log-log slope.

    With (B, R) = ``ps.step_operators()``, c, s = cos dt, sin dt and
    u = e^{-iB dt} v, the step gives c^2 P + s^2 R - i c s [B, P] and the
    exact evolution |u><u|, so

        D = step - exact = s^2 R + L,
        L = c^2 P - i c s (|Bv><v| - |v><Bv|) - |u><u|,

    and L lives in span(v, Bv, u).  Let Q be an orthonormal basis of that
    span, M = Q^dagger L Q and Pi = I - Q Q^dagger.  Then L = Q M Q^dagger and

        ||D||_F^2 = s^4 ||R||_F^2 + 2 s^2 Re tr(Q^dagger R Q M) + ||M||_F^2
                  = ||s^2 Q^dagger R + M Q^dagger||_F^2 + s^4 ||Pi R||_F^2,

    the rows of D inside and outside the span.  The second form is
    evaluated: a sum of squares, in which no terms of size s^4 cancel.  Q
    comes from a Householder QR of [v, Bv, delta] with
    delta = u - v = V expm1(-i lam dt) V^dagger v, which spans the same
    space (the QR stays valid when it is rank-deficient).  Its triangular
    factor T holds Q^dagger v, Q^dagger Bv and Q^dagger delta, so
    M = T W T^dagger with

        W = [[-s^2, i c s, -1], [-i c s, 0, 0], [-1, 0, -1]]

    (from c^2 P - |u><u| = -s^2 P - |v><delta| - |delta><v| - |delta><delta|):
    every term has size dt or dt^2, where c^2 P and |u><u| would cancel to
    that size from size 1.  Each dt costs O(m^2) after the generator's
    decomposition and builds no m x m state.  A squared error that is not finite and positive
    raises ``NumericalError`` naming ``term`` and dt.  The dense
    computation is the test oracle ``tests/dilation.py::dense_one_step_errors``.
    """
    b, r = ps.step_operators()
    lam, vecs = ps.spectrum.eigenvalues, ps.spectrum.eigenvectors
    v = probe.amplitudes
    dt = np.asarray(dts, dtype=np.float64)
    # slice j holds [v, Bv, delta] at dts[j]; one QR call serves the sweep
    spans = np.empty((dt.size, v.size, 3), dtype=np.complex128)
    spans[:, :, 0], spans[:, :, 1] = v, b @ v
    spans[:, :, 2] = (vecs @ (np.expm1(-1j * np.outer(lam, dt))
                              * (vecs.conj().T @ v)[:, None])).T
    qs, tris = np.linalg.qr(spans)
    del spans  # not held through the sweep, whose peak memory it would raise
    errs = []
    for dt_j, q, tri in zip(dts, qs, tris):
        c, s = math.cos(dt_j), math.sin(dt_j)
        w = np.array([[-s * s, 1j * c * s, -1.0], [-1j * c * s, 0.0, 0.0], [-1.0, 0.0, -1.0]])
        qh = q.conj().T
        q_r = qh @ r
        err2 = float(np.linalg.norm(s * s * q_r + tri @ w @ tri.conj().T @ qh) ** 2
                     + s**4 * np.linalg.norm(r - q @ q_r) ** 2)
        if not (math.isfinite(err2) and err2 > 0):
            raise NumericalError(
                f"one-step error of the {term} channel at dt={dt_j:g} has squared norm {err2!r}"
            )
        errs.append(math.sqrt(err2))
    return errs, float(np.polyfit(np.log(dt), np.log(errs), 1)[0])


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
    training, points, graph = _front_end(stages, cfg, dataset, testset, nonzero_points=True)

    k_density = stages.run("encode_kernel", lambda: kernel_density(training))
    l_density = stages.run("encode_laplacian", lambda: laplacian_density(graph))
    y_state = stages.run("encode_labels", lambda: label_state(training.labels))

    # train's factored assembly, A = F C F^T over the factor F of K = F F^T
    sysq = stages.run("classical", lambda: assemble_factored(
        kernel_factor(training), l_density.matrix, training.labels, cfg.gamma))
    model = stages.run("classical", lambda: solve_classical(
        sysq, cfg.sigma_thresh, kernel=cfg.kernel, training_features=training.features))
    states = stages.run("program_states", lambda: _program_states(
        generator_terms(k_density, l_density)))
    del k_density, l_density  # the states hold what the later stages read
    a_hat_deviation = stages.run("program_states", lambda: _a_hat_deviation(
        states, cfg.gamma, sysq.normalized_matrix()))

    qpe_cfg = QPEConfig(clock_qubits=cfg.clock_qubits)
    # the k program state's generator is K itself (rho0 = K, rho1 = 0)
    ky_state = stages.run(
        "multiply", lambda: quantum_multiply(states["k"].spectrum, y_state, qpe_cfg))
    multiply_fidelity = state_fidelity(ky_state.amplitudes, sysq.rhs / np.linalg.norm(sysq.rhs))

    hhl_result = stages.run(
        "invert", lambda: hhl_solve(sysq.spectrum, ky_state, cfg.sigma_thresh, qpe_cfg))
    alpha_classical = model.alpha
    # scaled by max|alpha_i| first: the squares of a tiny alpha underflow
    alpha_unit = alpha_classical / np.max(np.abs(alpha_classical))
    alpha_unit /= np.linalg.norm(alpha_unit)
    solution_fidelity = state_fidelity(hhl_result.solution_state.amplitudes, alpha_unit)

    def _classify():
        # the solution state's global phase is unobservable; align it with
        # the classical reference before reading out labels
        amps = hhl_result.solution_state.amplitudes
        phase = np.vdot(amps, alpha_unit)
        alpha_quantum = np.real(amps * np.exp(1j * np.angle(phase)))
        classical_labels = predict(model, points)[1]
        # row i of a sampled readout draws from seed cfg.seed + i
        result = classify(alpha_quantum, points, training, shots=cfg.shots, seed=cfg.seed)
        return {
            "agreement": float(np.mean(classical_labels == result.label)),
            "test_point_count": len(points),
            "classical_labels": classical_labels.tolist(),
            "quantum_labels": result.label.tolist(),
            "p_estimates": result.p_estimate.tolist(),
            "ambiguous_count": int(np.count_nonzero(result.ambiguous)),
        }

    classification = stages.run("classify", _classify)

    def _bench():
        probe = _probe_state(training.sample_count, cfg.seed)
        return {name: _one_step_errors(name, ps, probe, _DT_SWEEP)[1]
                for name, ps in states.items()}

    slopes = stages.run("bench", _bench)

    # residual restricted to the retained eigenspace of A/tr(A)
    keep = sysq.spectrum.eigenvectors[:, sysq.spectrum.eigenvalues >= cfg.sigma_thresh]
    resid_vec = objective_gradient(sysq, alpha_classical)
    residual_retained = float(np.linalg.norm(keep.T @ resid_vec)
                              / max(np.linalg.norm(keep.T @ sysq.rhs), 1e-30))

    return {
        **_report_header("simulate", cfg, dataset, testset, training, graph),
        "classical": {
            "alpha": [float(a) for a in alpha_classical],
            "residual_retained": residual_retained,
            "gradient_norm": float(np.linalg.norm(resid_vec)),
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
    training, points, graph = _front_end(stages, cfg, dataset, testset)
    lap = stages.run("laplacian", lambda: laplacian(graph, cfg.laplacian_kind))
    model, sys = stages.run("train", lambda: train_semi_supervised(
        training, lap, cfg.kernel, cfg.gamma, cfg.sigma_thresh))
    resid = np.linalg.norm(objective_gradient(sys, model.alpha))
    report = {
        **_report_header("train", cfg, dataset, testset, training, graph),
        "alpha": [float(a) for a in model.alpha],
        "residual": float(resid / max(np.linalg.norm(sys.rhs), 1e-30)),
        "gradient_norm": float(resid),
    }
    if testset is not None:
        scores, labels = stages.run("predict", lambda: predict(model, points))
        report["predictions"] = {"scores": scores.tolist(), "labels": labels.tolist()}
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
    training, points, graph = _front_end(stages, cfg, dataset)
    k_density = stages.run("encode_kernel", lambda: kernel_density(training))
    l_density = stages.run("encode_laplacian", lambda: laplacian_density(graph))
    states = stages.run("program_states", lambda: _program_states(
        generator_terms(k_density, l_density)))
    del training, points, graph, k_density, l_density  # not held through the trajectories
    probe = _probe_state(states["k"].system_dim, cfg.seed)
    sigma0 = DensityMatrix(np.outer(probe.amplitudes, probe.amplitudes.conj()))

    def _trajectory(ps):
        exact_final = exact_conjugation(ps.spectrum, sigma0, total_time)
        errors = {}
        for steps in (n, 2 * n):
            run = simulate_evolution(
                [(1.0, ps)], sigma0, EvolutionConfig(total_time, cfg.delta, steps))
            errors[steps] = float(np.linalg.norm(run.state.matrix - exact_final.matrix))
        return {
            "steps": n,
            "error": errors[n],
            "error_double_steps": errors[2 * n],
            "halving_ratio": errors[n] / max(errors[2 * n], 1e-300),
        }

    sweeps, slopes, trajectory = {}, {}, {}
    for name in list(states):
        # one state at a time, with its decomposition, serves the dt sweep,
        # the exact final state and both trajectories
        ps = states.pop(name)
        sweeps[name], slopes[name] = stages.run(
            "bench", lambda: _one_step_errors(name, ps, probe, dts))
        trajectory[name] = stages.run("trajectory", lambda: _trajectory(ps))

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
        if not 0 < self.eta < math.inf or not 0 < self.delta_fail <= 1:
            raise ParameterError("eta must be finite and positive and delta_fail in (0, 1]")


def cost_model(params: CostModelParams) -> dict:
    """Asymptotic costs of the quantum trainer and its sampling-based
    classical counterpart on the diagonal rank-q family.

    quantum:      q^3 eps^-3 log(m p)
    dequantized:  q^9 eps^-6 eta^6 log^3(1/delta_fail)

    The log^3 factor, taken as -log(delta_fail) so that a subnormal
    delta_fail stays finite, is floored at 1 so the neutral default
    delta_fail = 1 contributes a constant instead of annihilating the
    bound.  A cost past the float64 range raises ``NumericalError``.
    Regimes: full rank (q = m), constant rank (q = 1), and slow growth in
    between.
    """
    q, eps = params.q, params.epsilon
    try:
        quantum = q**3 * eps**-3 * math.log(params.m * params.p)
        log_fail = max(1.0, (-math.log(params.delta_fail)) ** 3)
        dequantized = q**9 * eps**-6 * params.eta**6 * log_fail
    except OverflowError:
        quantum = dequantized = math.inf
    if not (math.isfinite(quantum) and math.isfinite(dequantized)):
        raise NumericalError("cost exceeds the float64 range")
    return {
        "quantum_cost": float(quantum),
        "dequantized_cost": float(dequantized),
        "regime": ("full_rank" if params.q == params.m
                   else "constant_rank" if params.q == 1 else "slow_growth"),
    }


def emit_report(report: dict, path: str | Path) -> Path:
    """Write a report as JSON with stable key order, serialized whole and
    written at once.

    I/O failures surface as ``OSError`` with the path.  ``simulate`` reports
    follow :data:`REPORT_SCHEMA`, which the test suite checks.
    """
    path = Path(path)
    text = json.dumps(report, indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path
