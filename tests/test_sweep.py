import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import edrsim.bounds
import edrsim.estimators
import edrsim.noise
import edrsim.qsim
import edrsim.sweep
from edrsim.bounds import effective_bound
from edrsim.circuit import SYSTEM, angle_for_strength
from edrsim.estimators import (
    CORRELATOR_SIGNS,
    basis_probabilities,
    outcome_distribution,
    readout_basis,
    sample_counts,
    weak_valued_squares,
)
from edrsim.measurement import reference_input_state, standard_deviation
from edrsim.noise import compile_noise, representative_profile
from edrsim.qsim import X, Z, expectation, partial_trace
from edrsim.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    SweepResultRow,
    config_summary,
    default_strength_grid,
    emit_csv,
    emit_json,
    post_probe_system_state,
    run_sweep,
)
from test_estimators import calibration_profiles


def small_config(**overrides):
    base = dict(
        strengths=(0.0, 0.5, 1.0),
        shots=5000,
        repeats=3,
        seed=321,
        mode="exact",
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_default_grid():
    grid = default_strength_grid()
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert abs(grid[1] - 0.05) < 1e-15
    with pytest.raises(ValueError):
        default_strength_grid(1)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(strengths=())
    with pytest.raises(ValueError):
        small_config(strengths=(0.0, 1.5))
    with pytest.raises(ValueError):
        small_config(shots=0)
    with pytest.raises(ValueError):
        small_config(mode="quick")
    with pytest.raises(ValueError):
        small_config(theta_w_strength=0.0)
    with pytest.raises(ValueError):
        small_config(sigma_source="guess")
    with pytest.raises(ValueError):
        small_config(seed=-1)


def test_config_rejects_zero_repeats():
    with pytest.raises(ValueError, match="repeats"):
        small_config(repeats=0)


def test_config_summary_reports_every_field_at_non_default_values():
    cfg = SweepConfig(theta_w_strength=0.3, strengths=(0.25, 0.75), shots=777, repeats=3,
                      seed=4242, mode="both", noise_profile=representative_profile(),
                      noise_path="calibration.yaml", include_idle=False, jobs=2,
                      sigma_source="simulated")
    default = SweepConfig()
    summary = config_summary(cfg)
    fields = {"noise": "noise_path"}
    assert set(summary) == {"theta_w_strength", "strengths", "shots", "repeats", "seed", "mode",
                            "noise", "include_idle", "sigma_source"}
    for key, value in summary.items():
        name = fields.get(key, key)
        assert getattr(cfg, name) != getattr(default, name), name
        assert value == (list(cfg.strengths) if key == "strengths" else getattr(cfg, name)), key
    assert json.loads(emit_json([], cfg))["config"] == summary


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_exact_row_does_not_depend_on_the_rest_of_the_grid(data):
    # a batched (points, 3) @ (3, 16) product can round a row differently at
    # different point counts; the exact rows are elementwise in the strength
    grid = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), label="grid")
    index = data.draw(st.integers(0, len(grid) - 1), label="index")
    for profile, include_idle in ((None, True), (representative_profile(), True),
                                  (representative_profile(), False)):
        alone, within = (
            emit_csv(run_sweep(small_config(strengths=strengths, noise_profile=profile,
                                            include_idle=include_idle))).splitlines()
            for strengths in ((grid[index],), grid)
        )
        assert alone[1] == within[1 + index], (profile, include_idle)


def test_exact_rows_carry_reference_curves():
    rows = run_sweep(small_config())
    assert [r.strength for r in rows] == [0.0, 0.5, 1.0]
    for row in rows:
        assert row.method == "exact"
        assert row.shots == 0 and row.repeats == 1
        assert row.epsilon_rms == 0.0 and row.eta_rms == 0.0
        assert abs(row.epsilon_exact - math.sqrt(2.0 * (1.0 - row.strength))) < 1e-9
        want_eta = math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - row.strength**2)))
        assert abs(row.eta_exact - want_eta) < 1e-9
        assert row.sigma_a == 1.0 and row.sigma_b == 1.0
        assert abs(row.c - effective_bound(angle_for_strength(0.05))) < 1e-15


def test_exact_rows_match_reference_estimator():
    theta_w = angle_for_strength(0.05)
    grid = default_strength_grid(11)
    for profile in (None, representative_profile()):
        rows = run_sweep(small_config(strengths=grid, noise_profile=profile))
        model = compile_noise(profile) if profile is not None else None
        for row in rows:
            probs = outcome_distribution(theta_w, angle_for_strength(row.strength), model)
            want_eps_sq, want_eta_sq = helpers.oracle_weak_valued_squares(probs, theta_w)
            # squares: the root of an ulp-sized square is not ulp-sized
            assert abs(row.epsilon_mean**2 - max(want_eps_sq, 0.0)) <= 1e-12
            assert abs(row.eta_mean**2 - max(want_eta_sq, 0.0)) <= 1e-12


def test_exact_tradeoff_is_monotone():
    rows = run_sweep(SweepConfig(strengths=default_strength_grid(), mode="exact"))
    eps = [r.epsilon_mean for r in rows]
    eta = [r.eta_mean for r in rows]
    assert all(b < a - 1e-9 for a, b in zip(eps, eps[1:]))
    assert all(b > a + 1e-9 for a, b in zip(eta, eta[1:]))


def test_sampled_rows_statistics():
    rows = run_sweep(small_config(mode="sampled"))
    for row in rows:
        assert row.method == "sampled"
        assert row.shots == 5000 and row.repeats == 3
        assert row.epsilon_rms > 0.0 or row.epsilon_mean == 0.0
        assert row.heisenberg_rms >= 0.0
    again = run_sweep(small_config(mode="sampled"))
    assert again == rows
    other_seed = run_sweep(small_config(mode="sampled", seed=99))
    assert other_seed != rows


def test_both_mode_blocks():
    rows = run_sweep(small_config(mode="both"))
    assert [r.method for r in rows] == ["exact"] * 3 + ["sampled"] * 3
    assert [r.strength for r in rows] == [0.0, 0.5, 1.0] * 2


def test_parallel_matches_serial():
    serial = run_sweep(small_config(mode="both", jobs=1))
    parallel = run_sweep(small_config(mode="both", jobs=3))
    assert emit_csv(serial) == emit_csv(parallel)
    assert serial == parallel


def test_csv_shape_and_formats():
    cfg = SweepConfig(strengths=default_strength_grid(), mode="exact")
    text = emit_csv(run_sweep(cfg))
    lines = text.splitlines()
    assert len(lines) == 22
    assert text.endswith("\n") and "\r" not in text
    header = lines[0].split(",")
    assert header[0] == "strength"
    assert header == list(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(header)
    by_name = dict(zip(header, cells))
    assert by_name["method"] == "exact"
    assert by_name["heisenberg_satisfied"] in ("true", "false")
    # 17 significant digits round-trip through float exactly
    assert float(by_name["epsilon_mean"]) == run_sweep(cfg)[0].epsilon_mean


def test_json_round_trip_matches_csv_values():
    cfg = small_config(mode="both")
    rows = run_sweep(cfg)
    doc = json.loads(emit_json(rows, cfg))
    assert doc["schema_version"] == 1
    assert doc["config"]["seed"] == 321
    assert doc["config"]["mode"] == "both"
    assert len(doc["rows"]) == len(rows)
    for parsed, row in zip(doc["rows"], rows):
        assert list(parsed) == list(CSV_COLUMNS)
        for col in CSV_COLUMNS:
            value = getattr(row, col)
            if isinstance(value, float):
                assert parsed[col] == value  # exact, not approximate
            else:
                assert parsed[col] == value


def test_emit_json_without_config():
    rows = run_sweep(small_config())
    doc = json.loads(emit_json(rows))
    assert doc["config"] is None


def test_post_probe_state_stays_close_to_input():
    state = post_probe_system_state(angle_for_strength(0.05))
    reference = reference_input_state()
    assert np.abs(state - reference).max() < 0.01
    assert abs(expectation(state, Z)) < 1e-12


def test_sigma_source_simulated():
    rows = run_sweep(small_config(sigma_source="simulated"))
    for row in rows:
        assert 0.9 < row.sigma_a <= 1.0 + 1e-12
        assert 0.9 < row.sigma_b <= 1.0 + 1e-12
    profile = representative_profile()
    rows = run_sweep(small_config(sigma_source="simulated", noise_profile=profile))
    noisy = post_probe_system_state(angle_for_strength(0.05), compile_noise(profile))
    for row in rows:
        assert row.sigma_a == standard_deviation(noisy, Z)
        assert row.sigma_b == standard_deviation(noisy, X)


def count_steps(monkeypatch, calls):
    """Record each call of the one step kernel as a forward step (a stack of one state) or
    a compile step (any other stack: a fused step's columns evolved by a channel, or readout
    effects pulled back to build the readout map)."""
    original = edrsim.qsim.evolve_stack

    def counting(mats, superop, targets):
        calls.append("forward" if len(mats) == 1 else "compile")
        return original(mats, superop, targets)

    for module in (edrsim.qsim, edrsim.estimators):
        monkeypatch.setattr(module, "evolve_stack", counting)


def test_evolution_count_does_not_scale_with_grid(monkeypatch):
    calls = []
    count_steps(monkeypatch, calls)
    # A sweep evolves only the prefix before the meter's rotation, one fused step
    # per gate plus one per channel with no earlier step on its qubits; the meter
    # tail is read off through the memoised readout map.  Ideal: the 7-gate prefix
    # once, 7 steps.  Representative noise: the prefix's 7 gates, plus one step each
    # for the relaxation of qubits 1, 2 and 3 before their first gate, 10; and the
    # noiseless 7-gate prefix once more for the exact reference: 10 + 7 = 17.
    for profile, want in ((representative_profile(), 17), (None, 7)):
        counts = []
        for points in (11, 201):
            calls.clear()
            cfg = small_config(strengths=default_strength_grid(points), noise_profile=profile)
            assert len(run_sweep(cfg)) == points
            counts.append(calls.count("forward"))
        assert counts == [want, want]


def test_repeat_sweep_compiles_nothing_and_still_evolves(monkeypatch):
    cfg = small_config(noise_profile=representative_profile(), mode="both", sigma_source="simulated")
    first = run_sweep(cfg)
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    built = edrsim.qsim.superoperator
    for module in [m for name, m in sys.modules.items() if name.startswith("edrsim")]:
        if vars(module).get("superoperator") is built:
            monkeypatch.setattr(module, "superoperator", counting("superoperator", built))
    count_steps(monkeypatch, calls)
    for module, name in ((edrsim.estimators, "compile_steps"),
                         (edrsim.noise, "depolarizing_channel"),
                         (edrsim.noise, "thermal_relaxation_channel")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert run_sweep(cfg) == first
    # the 17 forward steps of test_evolution_count_does_not_scale_with_grid, no
    # compile step, and no superoperator built
    assert calls == ["forward"] * 17


def test_compiled_circuits_stay_within_their_bound():
    caches = (edrsim.estimators._compiled, edrsim.estimators._readout_map)
    bound = caches[0].cache_parameters()["maxsize"]
    profile = representative_profile()
    # each noisy sweep compiles two (theta_w, noise) prefixes and one readout map
    for k in range(bound + 1):
        run_sweep(small_config(theta_w_strength=0.2 + 0.01 * k, noise_profile=profile))
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] == bound
        assert cache.cache_info().currsize == bound


STALE_A_ARGS = ("--grid", "5", "--shots", "2000", "--repeats", "2", "--seed", "99",
                "--mode", "both", "--sigma-source", "simulated", "--noise", "representative")


@pytest.fixture(scope="module")
def cli_sweep_a(tmp_path_factory):
    """CSV and JSON of sweep A, each from its own ``python -m edrsim sweep`` process."""
    out = {}
    for fmt in ("csv", "json"):
        path = tmp_path_factory.mktemp("cli") / f"a.{fmt}"
        result = subprocess.run(
            [sys.executable, "-m", "edrsim", "sweep", *STALE_A_ARGS, "--format", fmt,
             "--out", str(path)],
            capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
        )
        assert result.returncode == 0, result.stderr
        out[fmt] = path.read_text(encoding="utf-8")
    return out["csv"], out["json"]


@settings(max_examples=8, deadline=None)
@given(profile=calibration_profiles())
def test_cached_compiles_are_never_stale(cli_sweep_a, profile):
    cfg = SweepConfig(strengths=default_strength_grid(5), shots=2000, repeats=2, seed=99,
                      mode="both", sigma_source="simulated",
                      noise_profile=representative_profile(), noise_path="representative")

    def emitted(config):
        rows = run_sweep(config)
        return emit_csv(rows), emit_json(rows, config)

    first = emitted(cfg)
    # sweeps that fill the caches with other models and probe angles between two runs of A
    for other in (replace(cfg, noise_profile=profile, sigma_source="ideal"),
                  replace(cfg, include_idle=False),
                  replace(cfg, theta_w_strength=0.3)):
        emitted(other)
    assert emitted(cfg) == first == cli_sweep_a


@pytest.mark.parametrize("probe", (0.05, 0.3, 0.7, 1.0))
def test_ideal_exact_rows_match_closed_form_on_the_squares(probe):
    strengths = default_strength_grid(41) + (2**-23, 1e-9, 1.0 - 1e-12)
    rows = run_sweep(small_config(theta_w_strength=probe, strengths=strengths))
    theta_w = angle_for_strength(probe)
    for row in rows:
        eps_sq, eta_sq = helpers.oracle_ideal_weak_valued_squares(theta_w, row.strength)
        assert abs(row.epsilon_mean**2 - eps_sq) <= 1e-12
        assert abs(row.eta_mean**2 - eta_sq) <= 1e-12


def test_ideal_reference_state_is_the_evolved_prefix():
    for strength in (0.05, 0.3, 0.7, 1.0):
        theta_w = angle_for_strength(strength)
        _, prefix_state = readout_basis(theta_w)
        from_prefix = partial_trace(prefix_state, [SYSTEM])
        assert np.array_equal(from_prefix, post_probe_system_state(theta_w))


def test_sampler_draws_once_per_point(monkeypatch):
    calls = []
    original = edrsim.sweep.sample_counts

    def counting(probs, shots, entropy, repeats):
        calls.append((shots, entropy, repeats))
        return original(probs, shots, entropy, repeats)

    monkeypatch.setattr(edrsim.sweep, "sample_counts", counting)
    cfg = small_config(strengths=default_strength_grid(21), mode="sampled", repeats=10)
    rows = run_sweep(cfg)
    assert calls == [(cfg.shots, [cfg.seed, index], 10) for index in range(21)]
    # the repeats of one point are distinct draws, not one batch copied
    assert all(row.epsilon_rms > 0.0 and row.eta_rms > 0.0 for row in rows)


def test_classify_count_does_not_scale_with_grid(monkeypatch):
    calls = []
    original = edrsim.bounds.classify

    def counting(inputs):
        calls.append(inputs)
        return original(inputs)

    monkeypatch.setattr(edrsim.bounds, "classify", counting)
    counts = []
    for points in (3, 21):
        calls.clear()
        cfg = small_config(strengths=default_strength_grid(points), mode="sampled")
        assert len(run_sweep(cfg)) == points
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_partial_trace_count(monkeypatch):
    # one reduction of the evolved prefix serves both the ideal exact reference
    # and simulated sigmas; a noisy sweep adds one of the noiseless prefix
    calls = []
    original = edrsim.qsim.partial_trace

    def counting(rho, keep):
        calls.append(tuple(keep))
        return original(rho, keep)

    for module in [m for name, m in sys.modules.items() if name.startswith("edrsim")]:
        if vars(module).get("partial_trace") is original:
            monkeypatch.setattr(module, "partial_trace", counting)
    counts = []
    for profile in (None, representative_profile()):
        for sigma_source in ("ideal", "simulated"):
            calls.clear()
            run_sweep(small_config(mode="exact", noise_profile=profile, sigma_source=sigma_source))
            counts.append(len(calls))
    assert counts == [1, 1, 1, 2]


@pytest.mark.parametrize(
    "points, profile, sigma_source, shots",
    [
        (21, None, "ideal", 100_000),
        (11, representative_profile(), "simulated", 100_000),
        (11, None, "ideal", 2000),  # shot noise carries estimates past the clamps
    ],
)
def test_rows_match_row_statistics_oracle(points, profile, sigma_source, shots):
    cfg = SweepConfig(
        strengths=default_strength_grid(points), shots=shots, repeats=10, seed=2024,
        mode="both", noise_profile=profile, sigma_source=sigma_source,
    )
    theta_w = angle_for_strength(cfg.theta_w_strength)
    model = compile_noise(profile) if profile is not None else None
    basis, _ = readout_basis(theta_w, model)
    if sigma_source == "ideal":
        sigmas = (1.0, 1.0)
    else:
        noisy = post_probe_system_state(theta_w, model)
        sigmas = (standard_deviation(noisy, Z), standard_deviation(noisy, X))
    probe = post_probe_system_state(theta_w)
    rows = run_sweep(cfg)
    assert len(rows) == 2 * points
    for row in rows:
        index = cfg.strengths.index(row.strength)
        probs = basis_probabilities(basis, row.strength)
        if row.method == "exact":
            squares = weak_valued_squares(probs, theta_w)[None, :]
        else:
            counts = sample_counts(probs, cfg.shots, [cfg.seed, index], cfg.repeats)
            squares = weak_valued_squares(counts, theta_w, cfg.shots)
        want = helpers.oracle_row_stats(squares, *sigmas, effective_bound(theta_w))
        for name, value in want.items():
            if name.endswith("_satisfied"):
                assert getattr(row, name) is value, (row.method, row.strength, name)
            else:
                assert abs(getattr(row, name) - value) <= 1e-12, (row.method, row.strength, name)
        assert abs(row.epsilon_exact**2 - helpers.oracle_error(probe, row.strength) ** 2) <= 1e-12
        assert abs(row.eta_exact**2 - helpers.oracle_disturbance(probe, row.strength) ** 2) <= 1e-12
        assert (row.shots, row.repeats) == ((0, 1) if row.method == "exact" else (cfg.shots, cfg.repeats))


def test_sampled_mean_and_rms_cells_are_bit_exact():
    # +, -, *, / and sqrt round correctly in Python floats and numpy alike, so each
    # sampled row's estimate cells, recomputed in plain Python from its integer
    # counts in the documented order, must match with ==: the correlator summed in
    # outcome order, then the repeats summed in repeat order, and d * d, not d ** 2
    cfg = SweepConfig(strengths=default_strength_grid(21), mode="both")
    assert (cfg.shots, cfg.repeats, cfg.seed, cfg.noise_profile) == (100_000, 10, 12345, None)
    theta_w = angle_for_strength(cfg.theta_w_strength)
    cw = math.cos(theta_w)
    basis, _ = readout_basis(theta_w)
    probs = basis_probabilities(basis, cfg.strengths)
    rows = run_sweep(cfg)
    for row in rows[:21]:
        assert row.method == "exact"
        rms = (row.epsilon_rms, row.eta_rms, row.heisenberg_rms, row.ozawa_rms,
               row.branciard_rms, row.strong_branciard_rms)
        assert all(value == 0.0 for value in rms), row.strength
    for index, row in enumerate(rows[21:]):
        assert row.method == "sampled" and row.strength == cfg.strengths[index]
        counts = sample_counts(probs[index], cfg.shots, [cfg.seed, index], cfg.repeats).tolist()
        for k, name in enumerate(("epsilon", "eta")):
            roots = []
            for batch in counts:
                correlator = 0
                for count, signs in zip(batch, CORRELATOR_SIGNS.tolist()):
                    correlator += count * signs[k]
                square = 2.0 * (1.0 - correlator / cfg.shots / cw)
                roots.append(math.sqrt(max(square, 0.0)))
            total = 0.0
            for root in roots:
                total += root
            mean = total / len(roots)
            total = 0.0
            for root in roots:
                d = root - mean
                total += d * d
            assert getattr(row, f"{name}_mean") == mean, (row.strength, name)
            assert getattr(row, f"{name}_rms") == math.sqrt(total / len(roots)), (row.strength, name)


def test_noisy_sweep_keeps_valid_flags():
    cfg = small_config(noise_profile=representative_profile(), noise_path="representative")
    rows = run_sweep(cfg)
    for row in rows:
        assert row.ozawa_satisfied and row.branciard_satisfied
        assert row.strong_branciard_satisfied
    text = emit_json(rows, cfg)
    assert json.loads(text)["config"]["noise"] == "representative"


def test_row_type_fixes_the_column_order():
    assert CSV_COLUMNS == SweepResultRow._fields == helpers.SWEEP_COLUMNS
    row = run_sweep(small_config(strengths=(0.5,)))[0]
    with pytest.raises(AttributeError):
        row.strength = 0.25
    with pytest.raises(TypeError):
        row[0] = 0.25


ROADMAP_CONFIGS = (
    SweepConfig(mode="both", seed=12345),
    SweepConfig(
        strengths=default_strength_grid(11), shots=1_000_000, repeats=4, mode="both",
        noise_profile=representative_profile(), noise_path="representative",
        sigma_source="simulated",
    ),
    SweepConfig(
        strengths=default_strength_grid(41), mode="exact",
        noise_profile=representative_profile(), noise_path="representative",
    ),
)


@pytest.mark.parametrize("cfg", ROADMAP_CONFIGS, ids=("ideal-both", "noisy-both", "noisy-exact"))
def test_emitters_match_cell_oracles_on_sweep_rows(cfg):
    rows = run_sweep(cfg)
    assert emit_csv(rows) == helpers.oracle_emit_csv(rows)
    assert emit_json(rows, cfg) == helpers.oracle_emit_json(rows, config_summary(cfg))
    assert emit_json(rows) == helpers.oracle_emit_json(rows, None)


EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1,
)
CELL_VALUES = {
    float: st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True)),
    bool: st.booleans(),
    int: st.integers(0, 2**63),
    str: st.sampled_from(("exact", "sampled")),
}
ROWS = st.lists(
    st.tuples(*(CELL_VALUES[kind] for kind in get_type_hints(SweepResultRow).values())).map(
        SweepResultRow._make
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_emitters_match_cell_oracles_on_typed_rows(rows):
    assert emit_csv(rows) == helpers.oracle_emit_csv(rows)
    assert emit_json(rows) == helpers.oracle_emit_json(rows, None)
    cfg = small_config()
    assert emit_json(rows, cfg) == helpers.oracle_emit_json(rows, config_summary(cfg))


def test_emitters_on_no_rows():
    assert emit_csv([]) == helpers.oracle_emit_csv([]) == ",".join(CSV_COLUMNS) + "\n"
    cfg = small_config()
    assert emit_json([]) == helpers.oracle_emit_json([], None)
    assert emit_json([], cfg) == helpers.oracle_emit_json([], config_summary(cfg))
    numpy_ints = small_config(seed=np.int64(3), shots=np.int32(10), repeats=np.uint8(2))
    assert emit_json([], numpy_ints) == helpers.oracle_emit_json([], config_summary(numpy_ints))
    assert emit_json([]).endswith('  "rows": [\n  ]\n}\n')
