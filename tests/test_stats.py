"""Ensemble statistics tests.

The jackknife is pinned against s / sqrt(R) (exact for the mean) and a
hand-computed leave-one-out example; the checks themselves are exercised
on batches whose pass/fail status is known by construction.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import fieldcorrespond.stats as stats_module
from fieldcorrespond import (
    ConfigError,
    DimensionMismatchError,
    FieldWindow,
    HurstSpec,
    Window,
    bonferroni_threshold,
    derive_theta,
    empirical_moments,
    fidelity_check,
    increment_stationarity_check,
    jackknife_se_mean,
    sample_sheet_batch,
    self_similarity_check,
    stationarity_check,
)
from fieldcorrespond._jsonio import dumps_json


def iid_batch(rng, window, n, reps, scale=1.0, drift=0.0):
    fields = []
    coords = np.array(list(window.sites()), dtype=float).reshape(window.shape + (window.N,))
    trend = drift * coords.sum(axis=-1, keepdims=True)
    for _ in range(reps):
        vals = scale * rng.normal(size=window.shape + (n,)) + trend
        fields.append(FieldWindow(window, vals))
    return fields


# ---------------------------------------------------------------------------
# Jackknife and thresholds


def test_jackknife_frozen_example():
    se = jackknife_se_mean(np.array([1.0, 2.0, 3.0, 4.0]))
    assert se == pytest.approx(0.6454972243679028, rel=1e-14)


def test_jackknife_equals_classical_se(rng):
    for _ in range(10):
        d = rng.normal(size=int(rng.integers(5, 60)))
        classical = d.std(ddof=1) / math.sqrt(d.size)
        assert jackknife_se_mean(d) == pytest.approx(classical, rel=1e-10)


def test_jackknife_equals_leave_one_out_loop(rng):
    # The definition: the spread of the R leave-one-out means, scaled by
    # (R - 1) / R; the closed form must agree to rounding.
    for r in (2, 3, 17, 400):
        d = rng.normal(loc=5.0, size=r)
        loo = np.array([np.delete(d, k).mean() for k in range(r)])
        ref = math.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2))
        assert jackknife_se_mean(d) == pytest.approx(ref, rel=1e-12)


def test_jackknife_needs_two():
    with pytest.raises(ConfigError, match="at least 2"):
        jackknife_se_mean(np.array([1.0]))


def test_jackknife_takes_a_list_and_refuses_other_shapes():
    assert jackknife_se_mean([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        math.sqrt(5 / 12), rel=1e-14)
    for d in ([[1.0, 2.0], [3.0, 4.0]], 2.5):
        with pytest.raises(ConfigError, match="1-D"):
            jackknife_se_mean(d)


def test_site_pairs_match_the_pair_list():
    # The stride through combinations_with_replacement, taken without
    # building the list.
    for m in range(1, 301):
        pairs = list(itertools.combinations_with_replacement(range(m), 2))
        for cap in (1, 2, 7, 60, len(pairs)):
            want = pairs if len(pairs) <= cap else [
                pairs[i] for i in np.unique(np.linspace(0, len(pairs) - 1, cap).astype(int))]
            assert stats_module._site_pairs(m, cap) == want, (m, cap)


def test_bonferroni_frozen():
    assert bonferroni_threshold(3.0, 1) == 3.0
    assert bonferroni_threshold(3.0, 2) == pytest.approx(3.2051549205989334, rel=1e-12)
    assert bonferroni_threshold(3.0, 10) == pytest.approx(3.6425222758316242, rel=1e-12)


def test_bonferroni_monotone():
    prev = 0.0
    for m in (1, 2, 5, 20, 100, 1000):
        cur = bonferroni_threshold(3.0, m)
        assert cur > prev
        prev = cur


@pytest.mark.parametrize("z_max", [1.0, 2.0, 3.0, 4.5, 6.0, 40.0])
def test_bonferroni_matches_scipy(z_max):
    for m in (2, 3, 10, 1000, 10**5, 10**6, 10**8):
        ref = norm.isf(2.0 * norm.sf(z_max) / (2.0 * m))
        assert bonferroni_threshold(z_max, m) == pytest.approx(ref, rel=1e-12)


def test_runtime_imports_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, fieldcorrespond, fieldcorrespond.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Stationarity and increment stationarity


def test_stationarity_passes_iid(rng):
    fields = iid_batch(rng, Window((0, 0), (2, 2)), 1, 400)
    report = stationarity_check(fields, [(1, 0), (0, 1)])
    assert report.passed
    assert report.z_threshold > report.z_max
    assert report.n_comparisons > 0


def test_stationarity_fails_on_drift(rng):
    fields = iid_batch(rng, Window((0,), (5,)), 1, 300, scale=0.1, drift=1.0)
    report = stationarity_check(fields, [(1,)])
    assert not report.passed


def test_sheet_fails_stationarity_passes_increments():
    h = HurstSpec([[0.6]])
    batch = sample_sheet_batch(np.eye(1), h, Window((0,), (4,)), "integer",
                               seed=19, replications=600)
    assert not stationarity_check(batch, [(1,)]).passed
    assert increment_stationarity_check(batch, [(1,)]).passed


def test_stationarity_requires_shift_overlap(rng):
    fields = iid_batch(rng, Window((0,), (2,)), 1, 10)
    with pytest.raises(Exception, match="no comparable sites|overlap"):
        stationarity_check(fields, [(5,)])


def test_degenerate_rows_pass_when_identical(rng):
    # A batch that is exactly constant along the shift direction: all
    # differences are identically zero, SEs vanish, and the check passes
    # with the degenerate flag raised.
    w = Window((0,), (3,))
    fields = []
    for r in range(12):
        v = float(r + 1)
        fields.append(FieldWindow(w, np.full((4, 1), v)))
    report = stationarity_check(fields, [(1,)])
    assert report.passed
    assert report.degenerate
    assert report.max_abs_z == 0.0


def test_degenerate_rows_fail_when_offset(rng):
    # Constant per replication but different across sites: zero SE with a
    # nonzero difference must fail, not sneak through.
    w = Window((0,), (1,))
    fields = []
    for r in range(10):
        vals = np.array([[1.0], [2.0]])
        fields.append(FieldWindow(w, vals))
    report = stationarity_check(fields, [(1,)])
    assert not report.passed
    assert report.max_abs_z == math.inf
    assert report.to_dict()["max_abs_z"] is None


def test_stack_rejects_mixed_geometry(rng):
    a = FieldWindow(Window((0,), (2,)), np.zeros((3, 1)))
    b = FieldWindow(Window((0,), (3,)), np.zeros((4, 1)))
    with pytest.raises(DimensionMismatchError):
        stationarity_check([a, b], [(1,)])


def test_stack_needs_two_replications(rng):
    a = FieldWindow(Window((0,), (2,)), np.zeros((3, 1)))
    with pytest.raises(ConfigError, match="replications"):
        stationarity_check([a], [(1,)])


# ---------------------------------------------------------------------------
# Self-similarity


def test_self_similarity_passes_with_true_exponent():
    h = HurstSpec([[0.6]])
    batch = sample_sheet_batch(np.eye(1), h, Window((-2,), (2,)), "exponential",
                               seed=23, replications=800)
    report = self_similarity_check(batch, (1,), derive_theta(h))
    assert report.passed


def test_self_similarity_fails_with_halved_exponent():
    h = HurstSpec([[0.6]])
    batch = sample_sheet_batch(np.eye(1), h, Window((-2,), (2,)), "exponential",
                               seed=23, replications=800)
    report = self_similarity_check(batch, (1,), derive_theta(HurstSpec([[0.3]])))
    assert not report.passed


def test_self_similarity_zero_shift_degenerate():
    h = HurstSpec([[0.6]])
    batch = sample_sheet_batch(np.eye(1), h, Window((-1,), (1,)), "exponential",
                               seed=7, replications=50)
    report = self_similarity_check(batch, (0,), derive_theta(h))
    assert report.passed
    assert report.max_abs_z == 0.0


def test_self_similarity_requires_exponential_clock():
    h = HurstSpec([[0.6]])
    batch = sample_sheet_batch(np.eye(1), h, Window((0,), (3,)), "integer",
                               seed=7, replications=20)
    with pytest.raises(DimensionMismatchError, match="exponential"):
        self_similarity_check(batch, (1,), derive_theta(h))


# ---------------------------------------------------------------------------
# Fidelity


def test_fidelity_passes_against_truth():
    h = HurstSpec([[0.3, 0.7]])
    batch = sample_sheet_batch(np.eye(1), h, Window((0, 0), (3, 3)), "integer",
                               seed=41, replications=2500)
    report = fidelity_check(batch, h, np.eye(1))
    assert report.passed
    assert report.z_threshold == 3.0
    assert report.n_comparisons == 10


def test_fidelity_fails_with_wrong_hurst():
    h = HurstSpec([[0.3, 0.7]])
    batch = sample_sheet_batch(np.eye(1), h, Window((0, 0), (3, 3)), "integer",
                               seed=41, replications=2500)
    wrong = HurstSpec([[0.8, 0.2]])
    report = fidelity_check(batch, wrong, np.eye(1))
    assert not report.passed


def test_fidelity_mixed_components():
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    h = HurstSpec([[0.5], [0.5]])
    batch = sample_sheet_batch(a, h, Window((0,), (3,)), "integer",
                               seed=43, replications=2500)
    report = fidelity_check(batch, h, a)
    assert report.passed


# ---------------------------------------------------------------------------
# Moment summaries


def test_empirical_moments_hand_example():
    w = Window((0,), (0,))
    fields = [FieldWindow(w, np.array([[v]])) for v in (1.0, 2.0, 3.0)]
    summary = empirical_moments(fields)
    assert summary.sites == ((0,),)
    assert summary.mean[0, 0] == pytest.approx(2.0, rel=1e-15)
    assert summary.mean_se[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert summary.cov[0, 0] == pytest.approx(1.0, rel=1e-14)
    # leave-one-out covariances are 0.5, 2.0, 0.5 -> jackknife SE exactly 1
    assert summary.cov_se[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert not summary.degenerate


def test_empirical_moments_cov_matches_numpy(rng):
    w = Window((0,), (2,))
    fields = [FieldWindow(w, rng.normal(size=(3, 2))) for _ in range(40)]
    summary = empirical_moments(fields)
    flat = np.stack([f.values.reshape(-1) for f in fields])
    np.testing.assert_allclose(summary.cov, np.cov(flat.T, ddof=1), rtol=1e-10)
    np.testing.assert_allclose(
        summary.mean.reshape(-1), flat.mean(axis=0), rtol=1e-12
    )


def test_empirical_moments_needs_three(rng):
    w = Window((0,), (1,))
    fields = [FieldWindow(w, rng.normal(size=(2, 1))) for _ in range(2)]
    with pytest.raises(ConfigError, match="at least 3"):
        empirical_moments(fields)


def test_empirical_moments_flags_degenerate():
    w = Window((0,), (0,))
    fields = [FieldWindow(w, np.array([[1.0]])) for _ in range(5)]
    summary = empirical_moments(fields)
    assert summary.degenerate


def loo_cov_se(flat):
    """Jackknife SE of the sample covariance by an explicit leave-one-out loop."""
    r = flat.shape[0]
    loo = np.stack(
        [np.atleast_2d(np.cov(np.delete(flat, k, axis=0).T, ddof=1)) for k in range(r)]
    )
    return np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))


@pytest.mark.parametrize("reps,sites,n", [(3, 1, 1), (7, 2, 2), (40, 3, 2), (200, 5, 1)])
def test_empirical_moments_cov_se_matches_loo_loop(rng, reps, sites, n):
    w = Window((0,), (sites - 1,))
    vals = 2.0 + rng.normal(size=(reps, sites, n)) * rng.uniform(0.5, 3.0, size=(sites, n))
    summary = empirical_moments([FieldWindow(w, v) for v in vals])
    np.testing.assert_allclose(
        summary.cov_se, loo_cov_se(vals.reshape(reps, -1)), rtol=1e-10, atol=0.0
    )


def test_empirical_moments_constant_column_has_zero_cov_se(rng):
    w = Window((0,), (2,))
    vals = rng.normal(size=(30, 3, 1))
    vals[:, 1, 0] = 0.5
    summary = empirical_moments([FieldWindow(w, v) for v in vals])
    oracle = loo_cov_se(vals.reshape(30, -1))
    np.testing.assert_allclose(summary.cov_se, oracle, rtol=1e-10, atol=0.0)
    assert np.all(summary.cov_se[1] == 0.0) and np.all(summary.cov_se[:, 1] == 0.0)
    assert summary.degenerate


def test_empirical_moments_handles_wide_inputs(rng):
    # R * q * q = 5.12e8 floats, past what a leave-one-out tensor could hold.
    reps, q = 20_000, 160
    w = Window((0,), (q - 1,))
    vals = rng.normal(size=(reps, q, 1))
    summary = empirical_moments([FieldWindow(w, v) for v in vals])
    assert summary.cov.shape == summary.cov_se.shape == (q, q)
    flat = vals.reshape(reps, q)
    np.testing.assert_allclose(summary.cov, np.cov(flat.T, ddof=1), rtol=1e-10, atol=1e-14)
    # For unit-variance Gaussian data, Var(x_i x_j) = 1 off the diagonal.
    off = summary.cov_se[~np.eye(q, dtype=bool)]
    assert np.all(np.abs(off * math.sqrt(reps) - 1.0) < 0.2)


# ---------------------------------------------------------------------------
# Calibration: the z statistics should behave like standard normals, so
# |z| > 3 should be rare over repeated seeded experiments.


def test_z_calibration_over_seeds():
    exceed = 0
    total = 0
    for seed in range(100):
        gen = np.random.default_rng(seed)
        d = gen.normal(size=200)
        z = d.mean() / jackknife_se_mean(d)
        total += 1
        if abs(z) > 3.0:
            exceed += 1
    assert exceed <= 5


def test_report_to_dict_shape(rng):
    fields = iid_batch(rng, Window((0,), (2,)), 1, 50)
    report = stationarity_check(fields, [(1,)])
    d = report.to_dict()
    assert set(d) == {
        "check", "z_max", "z_threshold", "n_comparisons", "max_abs_z",
        "passed", "degenerate", "comparisons",
    }
    assert d["check"] == "stationarity"
    row = d["comparisons"][0]
    assert set(row) == {"label", "estimate", "reference", "se", "z", "degenerate"}


# ---------------------------------------------------------------------------
# Vectorized rows against the per-row loop; row blocks; thresholds


def loop_shift_rows(data, window, shift, max_pairs=60):
    """(estimate, se) of every row of one shift, one row at a time."""
    base = window.intersection(window.shifted(tuple(-v for v in shift)))
    m, n, r = base.volume, data.shape[-1], data.shape[0]

    def slab(part):
        sl = tuple(slice(a - b, a - b + s)
                   for a, b, s in zip(part.lo, window.lo, part.shape))
        return data[(slice(None),) + sl].reshape(r, -1, n)

    a_shift, a_base = slab(base.shifted(shift)), slab(base)
    diffs = [a_shift[:, a, k] - a_base[:, a, k] for a in range(m) for k in range(n)]
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    if len(pairs) > max_pairs:
        keep = np.unique(np.linspace(0, len(pairs) - 1, max_pairs).astype(int))
        pairs = [pairs[i] for i in keep]
    diffs += [a_shift[:, a, k] * a_shift[:, b, l] - a_base[:, a, k] * a_base[:, b, l]
              for a, b in pairs
              for k, l in itertools.combinations_with_replacement(range(n), 2)]
    return [(float(d.mean()), jackknife_se_mean(d)) for d in diffs]


def test_stationarity_rows_equal_the_row_loop(rng):
    w = Window((0, -1), (3, 2))
    fields = iid_batch(rng, w, 2, 37)
    data = np.stack([f.values for f in fields])
    shifts = [(1, 0), (0, 2), (2, 1)]
    report = stationarity_check(fields, shifts, max_pairs=25)
    ref = [row for s in shifts for row in loop_shift_rows(data, w, s, max_pairs=25)]
    assert [(c.estimate, c.se) for c in report.comparisons] == ref


def test_row_blocks_do_not_change_reports(rng, monkeypatch):
    w = Window((-1, -1), (2, 1))
    batch = sample_sheet_batch(np.diag([1.0, 0.5]), HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
                               w, "exponential", seed=3, replications=50)
    theta = derive_theta(HurstSpec([[0.3, 0.7], [0.6, 0.4]]))

    def run():
        reports = [
            stationarity_check(batch, [(1, 0), (1, 1)]),
            increment_stationarity_check(batch, [(1, 0)]),
            self_similarity_check(batch, (1, 1), theta),
            fidelity_check(batch, HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
                           np.diag([1.0, 0.5])),
        ]
        summary = empirical_moments(batch)
        return ([dumps_json(rep.to_dict()) for rep in reports],
                [summary.mean.tobytes(), summary.mean_se.tobytes(),
                 summary.cov.tobytes(), summary.cov_se.tobytes()])

    whole = run()
    # One row per block, then three rows per block with a partial last one.
    for bound in (1, 3 * 50 + 7):
        monkeypatch.setattr(stats_module, "ROW_BLOCK", bound)
        assert run() == whole


@pytest.mark.parametrize("z_max", [math.nan, math.inf, -math.inf, -1.0, 0.0, True, "3"])
def test_checks_reject_bad_z_max(rng, z_max):
    w = Window((0, 0), (2, 2))
    fields = iid_batch(rng, w, 1, 5)
    theta = derive_theta(HurstSpec([[0.5, 0.5]]))
    exp_fields = [FieldWindow(w, f.values, "exponential") for f in fields]
    calls = [
        lambda: stationarity_check(fields, [(1, 0)], z_max=z_max),
        lambda: increment_stationarity_check(fields, [(1, 0)], z_max=z_max),
        lambda: self_similarity_check(exp_fields, (1, 1), theta, z_max=z_max),
        lambda: fidelity_check(fields, HurstSpec([[0.5, 0.5]]), np.eye(1), z_max=z_max),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="z_max must be a positive finite number"):
            call()
