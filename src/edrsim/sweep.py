"""Strength sweeps over the experiment, with CSV/JSON emission.

A sweep evaluates the weak-valued error/disturbance estimates at each
main-measurement strength, classifies the four trade-off relations at
the per-point mean estimates, and carries exact operator-definition
reference values alongside.  Sampled sweeps aggregate ``repeats``
independent batches of ``shots`` executions each, reporting the mean as
the estimate and the root-mean-square scatter of the repeat values as
the error bar; left-hand-side scatter columns let consumers form
statistical margins as rms / sqrt(repeats).

Determinism: every sampled batch is seeded by (seed, point index,
repeat index) only, so results are byte-identical for a given
configuration no matter how many worker processes run the sweep.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds as edr_bounds
from .circuit import SYSTEM, angle_for_strength, build_edr_circuit
from .estimators import (
    basis_probabilities,
    derive_seed,
    readout_basis,
    run_circuit,
    sample_counts,
    split_at_meter,
    weak_valued_squares,
)
from .measurement import exact_disturbance, exact_error, reference_input_state, standard_deviation
from .noise import CalibrationProfile, NoiseModel, compile_noise
from .qsim import DensityMatrix, X, Z

MODES = ("exact", "sampled", "both")
SIGMA_SOURCES = ("ideal", "simulated")


def default_strength_grid(points: int = 21) -> tuple[float, ...]:
    """Evenly spaced strengths covering [0, 1] inclusive."""
    if points < 2:
        raise ValueError(f"grid needs at least 2 points, got {points}")
    return tuple(float(s) for s in np.linspace(0.0, 1.0, points))


@dataclass(frozen=True)
class SweepConfig:
    theta_w_strength: float = 0.05
    strengths: tuple[float, ...] = default_strength_grid()
    shots: int = 100_000
    repeats: int = 10
    seed: int = 12345
    mode: str = "sampled"
    noise_profile: CalibrationProfile | None = None
    noise_path: str | None = None
    include_idle: bool = True
    jobs: int = 1
    sigma_source: str = "ideal"

    def __post_init__(self) -> None:
        object.__setattr__(self, "strengths", tuple(float(s) for s in self.strengths))
        if not 0.0 < self.theta_w_strength <= 1.0:
            raise ValueError(f"theta_w_strength {self.theta_w_strength} outside (0, 1]")
        if not self.strengths:
            raise ValueError("no strengths given")
        for s in self.strengths:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"strength {s} outside [0, 1]")
        if self.shots < 1:
            raise ValueError(f"shots {self.shots} must be positive")
        if self.repeats < 1:
            raise ValueError(f"repeats {self.repeats} must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs {self.jobs} must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")
        if self.sigma_source not in SIGMA_SOURCES:
            raise ValueError(f"sigma_source {self.sigma_source!r} not in {SIGMA_SOURCES}")


@dataclass(frozen=True)
class SweepResultRow:
    strength: float
    method: str
    epsilon_mean: float
    epsilon_rms: float
    eta_mean: float
    eta_rms: float
    epsilon_exact: float
    eta_exact: float
    sigma_a: float
    sigma_b: float
    c: float
    heisenberg_lhs: float
    heisenberg_rms: float
    heisenberg_satisfied: bool
    ozawa_lhs: float
    ozawa_rms: float
    ozawa_satisfied: bool
    branciard_lhs: float
    branciard_rms: float
    branciard_satisfied: bool
    strong_branciard_lhs: float
    strong_branciard_rms: float
    strong_branciard_satisfied: bool
    shots: int
    repeats: int


CSV_COLUMNS = tuple(f.name for f in SweepResultRow.__dataclass_fields__.values())


def post_probe_system_state(theta_w: float, noise: NoiseModel | None = None) -> DensityMatrix:
    """Reduced system state after both weak probes, before the main measurement."""
    prefix, _ = split_at_meter(build_edr_circuit(theta_w, 0.0))
    return run_circuit(prefix, noise).partial_trace([SYSTEM])


def _rms(values: Sequence[float], center: float) -> float:
    if len(values) <= 1:
        return 0.0
    return math.sqrt(sum((v - center) ** 2 for v in values) / len(values))


def _inputs(
    eps: float, eta: float, sigma_a: float, sigma_b: float, c: float
) -> edr_bounds.EdrInputs:
    # shot noise on a weak-valued estimate can stray past the physical
    # interval; classification is only defined inside it, so clamp
    return edr_bounds.EdrInputs(
        min(max(eps, 0.0), 2.0), min(max(eta, 0.0), 2.0), sigma_a, sigma_b, c
    )


def _bound_stats(
    eps_values: list[float],
    eta_values: list[float],
    mean_eps: float,
    mean_eta: float,
    sigma_a: float,
    sigma_b: float,
    c: float,
) -> tuple[edr_bounds.EdrReport, dict[str, float]]:
    report = edr_bounds.classify(_inputs(mean_eps, mean_eta, sigma_a, sigma_b, c))
    scatter: dict[str, float] = {}
    if len(eps_values) > 1:
        per_lhs = {name: [] for name in edr_bounds.BOUND_NAMES}
        for eps, eta in zip(eps_values, eta_values):
            rep = edr_bounds.classify(_inputs(eps, eta, sigma_a, sigma_b, c))
            for name in edr_bounds.BOUND_NAMES:
                per_lhs[name].append(rep.lhs(name))
        for name in edr_bounds.BOUND_NAMES:
            scatter[name] = _rms(per_lhs[name], report.lhs(name))
    else:
        scatter = {name: 0.0 for name in edr_bounds.BOUND_NAMES}
    return report, scatter


def _assemble_row(
    strength: float,
    method: str,
    squares: np.ndarray,
    refs: tuple[float, float],
    sigmas: tuple[float, float],
    c: float,
    shots: int,
) -> SweepResultRow:
    """One row from the (repeats, 2) squared estimates, clamped at zero before the root."""
    roots = np.sqrt(np.maximum(squares, 0.0)).reshape(-1, 2)
    eps_values = roots[:, 0].tolist()
    eta_values = roots[:, 1].tolist()
    eps_mean = sum(eps_values) / len(eps_values)
    eta_mean = sum(eta_values) / len(eta_values)
    report, scatter = _bound_stats(
        eps_values, eta_values, eps_mean, eta_mean, sigmas[0], sigmas[1], c
    )
    return SweepResultRow(
        strength=strength,
        method=method,
        epsilon_mean=eps_mean,
        epsilon_rms=_rms(eps_values, eps_mean),
        eta_mean=eta_mean,
        eta_rms=_rms(eta_values, eta_mean),
        epsilon_exact=refs[0],
        eta_exact=refs[1],
        sigma_a=sigmas[0],
        sigma_b=sigmas[1],
        c=c,
        heisenberg_lhs=report.heisenberg_lhs,
        heisenberg_rms=scatter["heisenberg"],
        heisenberg_satisfied=report.satisfied["heisenberg"],
        ozawa_lhs=report.ozawa_lhs,
        ozawa_rms=scatter["ozawa"],
        ozawa_satisfied=report.satisfied["ozawa"],
        branciard_lhs=report.branciard_lhs,
        branciard_rms=scatter["branciard"],
        branciard_satisfied=report.satisfied["branciard"],
        strong_branciard_lhs=report.strong_branciard_lhs,
        strong_branciard_rms=scatter["strong_branciard"],
        strong_branciard_satisfied=report.satisfied["strong_branciard"],
        shots=shots,
        repeats=len(eps_values),
    )


@dataclass(frozen=True)
class _SweepConstants:
    """Everything a point needs that does not depend on its strength."""

    theta_w: float
    basis: np.ndarray
    probe_state: DensityMatrix
    sigmas: tuple[float, float]
    c: float


def _sweep_constants(cfg: SweepConfig) -> _SweepConstants:
    theta_w = angle_for_strength(cfg.theta_w_strength)
    model = (
        compile_noise(cfg.noise_profile, include_idle=cfg.include_idle)
        if cfg.noise_profile is not None
        else None
    )
    basis, prefix_state = readout_basis(theta_w, model)
    probe_state = post_probe_system_state(theta_w)
    if cfg.sigma_source == "ideal":
        sigma_state = reference_input_state()
    else:
        sigma_state = prefix_state.partial_trace([SYSTEM])
    sigmas = (standard_deviation(sigma_state, Z), standard_deviation(sigma_state, X))
    return _SweepConstants(theta_w, basis, probe_state, sigmas, edr_bounds.effective_bound(theta_w))


def _repeat_squares(
    cfg: SweepConfig, index: int, probs: np.ndarray, theta_w: float
) -> np.ndarray:
    """(repeats, 2) squared estimates of point ``index``, one seeded batch per repeat."""
    counts = np.stack([
        sample_counts(probs, cfg.shots, derive_seed(cfg.seed, index, repeat))
        for repeat in range(cfg.repeats)
    ])
    return weak_valued_squares(counts, theta_w, cfg.shots)


def _point_rows(
    cfg: SweepConfig, consts: _SweepConstants, index: int, strength: float
) -> list[SweepResultRow]:
    """Rows for one strength point; exact first when mode is 'both'."""
    refs = (
        exact_error(consts.probe_state, strength),
        exact_disturbance(consts.probe_state, strength),
    )
    probs = basis_probabilities(consts.basis, strength)
    rows = []
    if cfg.mode in ("exact", "both"):
        squares = weak_valued_squares(probs, consts.theta_w)
        rows.append(
            _assemble_row(strength, "exact", squares, refs, consts.sigmas, consts.c, 0)
        )
    if cfg.mode in ("sampled", "both"):
        squares = _repeat_squares(cfg, index, probs, consts.theta_w)
        rows.append(
            _assemble_row(
                strength, "sampled", squares, refs, consts.sigmas, consts.c, cfg.shots
            )
        )
    return rows


def _point_task(
    payload: tuple[SweepConfig, _SweepConstants, int, float],
) -> list[SweepResultRow]:
    return _point_rows(*payload)


def run_sweep(cfg: SweepConfig) -> list[SweepResultRow]:
    """All sweep rows, ordered by method block (exact before sampled) then strength."""
    consts = _sweep_constants(cfg)
    tasks = [(cfg, consts, i, s) for i, s in enumerate(cfg.strengths)]
    workers = min(cfg.jobs, len(tasks))
    if workers == 1:
        per_point = [_point_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_point_task, tasks))
    rows: list[SweepResultRow] = []
    for method in ("exact", "sampled"):
        for point in per_point:
            rows.extend(r for r in point if r.method == method)
    return rows


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows: Sequence[SweepResultRow]) -> str:
    """Deterministic CSV text: fixed column order, 17-significant-digit floats, LF endings."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _jdump(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_jdump(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {_jdump(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def config_summary(cfg: SweepConfig) -> dict:
    return {
        "theta_w_strength": cfg.theta_w_strength,
        "strengths": list(cfg.strengths),
        "shots": cfg.shots,
        "repeats": cfg.repeats,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "noise": cfg.noise_path,
        "include_idle": cfg.include_idle,
        "sigma_source": cfg.sigma_source,
    }


def emit_json(rows: Sequence[SweepResultRow], config: SweepConfig | None = None) -> str:
    """Schema-versioned JSON envelope with the same values as the CSV form."""
    lines = ["{", '  "schema_version": 1,']
    summary = config_summary(config) if config is not None else None
    lines.append(f'  "config": {_jdump(summary)},')
    lines.append('  "rows": [')
    keys = [(col, json.dumps(col)) for col in CSV_COLUMNS]
    for pos, row in enumerate(rows):
        cells = ", ".join(f"{key}: {_jdump(getattr(row, col))}" for col, key in keys)
        comma = "," if pos + 1 < len(rows) else ""
        lines.append("    {" + cells + "}" + comma)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"
