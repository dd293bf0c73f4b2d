"""Strength sweeps over the experiment, with CSV/JSON emission.

A sweep evaluates the weak-valued error/disturbance estimates at each
main-measurement strength, classifies the four trade-off relations at
the per-point mean estimates, and carries exact operator-definition
reference values alongside.  Sampled sweeps aggregate ``repeats``
independent batches of ``shots`` executions each, reporting the mean as
the estimate and the root-mean-square scatter of the repeat values as
the error bar; left-hand-side scatter columns let consumers form
statistical margins as rms / sqrt(repeats).

Rows are ``SweepResultRow`` named tuples whose field order is the CSV
column order.  Each output format writes a row through one template,
built at import from the field types.

Determinism: each strength point has one random stream, seeded by
(seed, point index) only, that draws all its repeats in one multinomial
call, so results are byte-identical for a given configuration.  The sweep
runs in one process; ``SweepConfig.jobs`` is validated and otherwise
ignored, so scripts that pass it keep working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from . import bounds as edr_bounds
from .circuit import SYSTEM, angle_for_strength
from .estimators import (
    basis_probabilities,
    prefix_state,
    readout_basis,
    sample_counts,
    weak_valued_squares,
)
from .measurement import exact_disturbance, exact_error, reference_input_state, standard_deviation
from .noise import CalibrationProfile, NoiseModel, compile_noise
from .qsim import X, Z, partial_trace

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
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if self.jobs < 1:
            raise ValueError(f"jobs {self.jobs} must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")
        if self.sigma_source not in SIGMA_SOURCES:
            raise ValueError(f"sigma_source {self.sigma_source!r} not in {SIGMA_SOURCES}")


class SweepResultRow(NamedTuple):
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


CSV_COLUMNS = SweepResultRow._fields


def post_probe_system_state(theta_w: float, noise: NoiseModel | None = None) -> np.ndarray:
    """Reduced system state after both weak probes, before the main measurement."""
    return partial_trace(prefix_state(theta_w, noise), [SYSTEM])


@cache
def _ideal_sigmas() -> tuple[float, float]:
    """sigma_A and sigma_B on the fixed |R> input, computed and checked once per process."""
    return tuple(standard_deviation(reference_input_state(), obs) for obs in (Z, X))


def _sequential_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 1, added in order by cumsum: numpy's pairwise sum rounds differently."""
    return np.cumsum(values, axis=1)[:, -1] / values.shape[1]


def _rms(values: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Root-mean-square deviation of each row of (points, repeats) values from its center."""
    deviation = values - center[:, None]
    return np.sqrt(_sequential_mean(deviation * deviation))


def _row_statistics(squares: np.ndarray, sigmas: tuple[float, float], c: float) -> dict[str, list]:
    """Per-point estimate and relation columns from (points, repeats, 2) squared estimates.

    The relations are classified at the mean estimates; each left-hand
    side's scatter is taken over the repeats around its value at the mean.
    """
    roots = np.sqrt(np.maximum(squares, 0.0))
    means = _sequential_mean(roots)

    def relations(values: np.ndarray) -> tuple[dict, dict]:
        # shot noise on a weak-valued estimate can stray past the physical
        # interval; classification is only defined inside it, so clamp
        v = np.clip(values, 0.0, 2.0)
        return edr_bounds.classify(edr_bounds.EdrInputs(v[..., 0], v[..., 1], *sigmas, c))

    lhs, satisfied = relations(means)
    columns = {"epsilon_mean": means[:, 0], "eta_mean": means[:, 1]}
    for name in edr_bounds.BOUND_NAMES:
        columns[f"{name}_lhs"] = lhs[name]
        columns[f"{name}_satisfied"] = satisfied[name]
    centers = {"epsilon": means[:, 0], "eta": means[:, 1], **lhs}
    if squares.shape[1] == 1:  # one repeat is its own mean, bit for bit: no scatter
        columns.update((f"{name}_rms", np.zeros(len(squares))) for name in centers)
    else:
        at_repeats = {"epsilon": roots[..., 0], "eta": roots[..., 1], **relations(roots)[0]}
        columns.update((f"{name}_rms", _rms(at_repeats[name], v)) for name, v in centers.items())
    return {name: values.tolist() for name, values in columns.items()}


def run_sweep(cfg: SweepConfig) -> list[SweepResultRow]:
    """All sweep rows, ordered by method block (exact before sampled) then strength."""
    theta_w = angle_for_strength(cfg.theta_w_strength)
    profile = cfg.noise_profile
    model = None if profile is None else compile_noise(profile, include_idle=cfg.include_idle)
    basis, prefix = readout_basis(theta_w, model)
    # the evolved prefix's system state is the exact reference's input without
    # noise and sigma's source when simulated; reduce it only if one of them reads it
    simulated = cfg.sigma_source == "simulated"
    reduced = partial_trace(prefix, [SYSTEM]) if model is None or simulated else None
    probe_state = reduced if model is None else post_probe_system_state(theta_w)
    sigmas = ((standard_deviation(reduced, Z), standard_deviation(reduced, X)) if simulated
              else _ideal_sigmas())
    c = edr_bounds.effective_bound(theta_w)
    eps_refs = exact_error(probe_state, cfg.strengths).tolist()
    eta_refs = exact_disturbance(probe_state, cfg.strengths).tolist()
    probs = basis_probabilities(basis, cfg.strengths)
    blocks = []
    if cfg.mode in ("exact", "both"):
        blocks.append(("exact", 0, weak_valued_squares(probs, theta_w)[:, None, :]))
    if cfg.mode in ("sampled", "both"):
        counts = np.array([
            sample_counts(p, cfg.shots, [cfg.seed, i], cfg.repeats) for i, p in enumerate(probs)
        ])
        blocks.append(("sampled", cfg.shots, weak_valued_squares(counts, theta_w, cfg.shots)))
    rows = []
    for method, shots, squares in blocks:
        columns = _row_statistics(squares, sigmas, c)
        columns.update(strength=cfg.strengths, epsilon_exact=eps_refs, eta_exact=eta_refs)
        constant = dict(method=method, sigma_a=sigmas[0], sigma_b=sigmas[1], c=c, shots=shots,
                        repeats=squares.shape[1])
        columns.update((name, repeat(value)) for name, value in constant.items())
        rows.extend(map(SweepResultRow, *(columns[name] for name in CSV_COLUMNS)))
    return rows


_COLUMN_TYPES = tuple(get_type_hints(SweepResultRow).values())
_BOOL_CELLS = tuple(i for i, kind in enumerate(_COLUMN_TYPES) if kind is bool)
# one conversion per column: 17 significant digits for floats, str() for the rest
_CELL_SPECS = tuple("%.17g" if kind is float else "%s" for kind in _COLUMN_TYPES)
_CSV_ROW = ",".join(_CELL_SPECS)
# the one string column, method, holds "exact" or "sampled": JSON's template quotes it
_JSON_ROW = "\n    {" + ", ".join(
    f"{json.dumps(name)}: {json.dumps(spec) if kind is str else spec}"
    for name, spec, kind in zip(CSV_COLUMNS, _CELL_SPECS, _COLUMN_TYPES)
) + "}"


def _cells(row: SweepResultRow) -> tuple:
    """The row's values with booleans spelled ``true``/``false``."""
    cells = list(row)
    for i in _BOOL_CELLS:
        cells[i] = "true" if cells[i] else "false"
    return tuple(cells)


def emit_csv(rows: Sequence[SweepResultRow]) -> str:
    """Deterministic CSV text: fixed column order, 17-significant-digit floats, LF endings."""
    lines = (_CSV_ROW % _cells(row) for row in rows)
    return "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"


def _jdump(value: object) -> str:
    """JSON text of the config summary, floats to 17 significant digits as in the rows."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_jdump(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_jdump(v)}" for k, v in value.items()) + "}"
    return json.dumps(value, default=int)  # bool, int, str, None; numpy integers by int()


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
    summary = config_summary(config) if config is not None else None
    # each row template starts its own line, so no rows leave "[" and "]" on adjacent lines
    body = ",".join(_JSON_ROW % _cells(row) for row in rows)
    return (
        '{\n  "schema_version": 1,\n'
        f'  "config": {_jdump(summary)},\n'
        f'  "rows": [{body}\n  ]\n}}\n'
    )
