"""Fractional sheet sampling tests.

fbs_cov is checked against an independent per-axis product formula and
frozen hand values; the min(t,s) identity pins the N=1, H=1/2 case
exactly.  Sampler tests cover determinism, zero hyperplanes, mixing
linearity, and rank-deficient grids; the batch draws are checked against
``substream``, their reference.
"""

import io
import json
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldcorrespond.gaussian as gaussian_module
from fieldcorrespond import (
    EXP_CLOCK_LIMIT,
    GRID_CAP,
    ConfigError,
    DimensionMismatchError,
    FouConfig,
    HurstSpec,
    NumericRangeError,
    SampleBatch,
    SheetSampler,
    ThetaTuple,
    TruncationPolicy,
    Window,
    build_cov_matrix,
    factor_covariance,
    fbs_cov,
    fou_batch,
    fou_field,
    load_batch,
    sample_sheet_batch,
    sheet_points,
    substream,
)
from fieldcorrespond.gaussian import MAX_REPLICATION, as_mixing


def fbs_cov_reference(t, s, H):
    out = 1.0
    for tl, sl, h in zip(t, s, H):
        out *= abs(tl) ** (2 * h) + abs(sl) ** (2 * h) - abs(tl - sl) ** (2 * h)
    return out / 2.0 ** len(H)


def test_fbs_cov_frozen_values():
    assert fbs_cov([2.0], [3.0], [0.3]) == pytest.approx(1.2244493057210803, rel=1e-15)
    assert fbs_cov([1.0], [4.0], [0.7]) == pytest.approx(1.6544338923114568, rel=1e-15)


def test_fbs_cov_matches_reference(rng):
    for _ in range(40):
        nn = int(rng.integers(1, 4))
        t = rng.uniform(-3, 3, nn)
        s = rng.uniform(-3, 3, nn)
        h = rng.uniform(0.05, 1.0, nn)
        assert fbs_cov(t, s, h) == pytest.approx(
            fbs_cov_reference(t, s, h), rel=1e-13, abs=1e-15
        )


def test_fbs_cov_separable_product():
    t, s = (2.0, 1.0), (3.0, 4.0)
    h = (0.3, 0.7)
    assert fbs_cov(t, s, h) == pytest.approx(
        fbs_cov([t[0]], [s[0]], [h[0]]) * fbs_cov([t[1]], [s[1]], [h[1]]), rel=1e-14
    )


def test_fbs_cov_zero_at_origin():
    assert fbs_cov([0.0], [2.5], [0.4]) == 0.0
    assert fbs_cov([0.0, 1.0], [2.0, 3.0], [0.4, 0.6]) == 0.0


def test_fbs_cov_h_one_is_product():
    # H = 1: 0.5(t^2 + s^2 - (t-s)^2) = t s exactly.
    assert fbs_cov([3.0], [5.0], [1.0]) == pytest.approx(15.0, rel=1e-14)


def test_fbs_cov_h_half_is_min_on_positives():
    for t in range(5):
        for s in range(5):
            assert fbs_cov([float(t)], [float(s)], [0.5]) == pytest.approx(
                float(min(t, s)), abs=1e-12
            )


def test_fbs_cov_validates():
    with pytest.raises(DimensionMismatchError):
        fbs_cov([1.0, 2.0], [1.0], [0.5])
    with pytest.raises(ConfigError):
        fbs_cov([1.0], [1.0], [0.0])
    with pytest.raises(ConfigError):
        fbs_cov([1.0], [1.0], [1.5])


def test_hurst_spec_promotes_and_validates():
    h = HurstSpec([0.3, 0.7])
    assert (h.n, h.N) == (1, 2)
    np.testing.assert_array_equal(h.row(0), [0.3, 0.7])
    h2 = HurstSpec([[0.3], [0.9]])
    assert (h2.n, h2.N) == (2, 1)
    with pytest.raises(ConfigError, match="0 < H <= 1"):
        HurstSpec([[0.0, 0.5]])
    with pytest.raises(ConfigError, match="0 < H <= 1"):
        HurstSpec([[1.2]])


@pytest.mark.parametrize("h", [[[True, 0.5]], [False], np.array([[True]]),
                               [[0.5], [np.True_]], np.array([0.5, True], dtype=object)])
def test_hurst_spec_refuses_bools(h):
    with pytest.raises(ConfigError, match="H entries must be numbers, not booleans"):
        HurstSpec(h)


@pytest.mark.parametrize("a", [[[True, 0.0], [0.0, 1.0]], np.eye(2, dtype=bool)])
def test_as_mixing_refuses_bools(a):
    with pytest.raises(ConfigError, match="mixing matrix entries must be numbers"):
        as_mixing(a, 2)
    np.testing.assert_array_equal(as_mixing(np.eye(2), 2), np.eye(2))


# ---------------------------------------------------------------------------
# Covariance matrices


def test_cov_matrix_min_identity_exact():
    # Integer N=1 grid at H = 1/2: covariance is exactly min(t, s).
    w = Window((0,), (6,))
    pts = sheet_points(w, "integer")
    cov = build_cov_matrix(pts, [0.5])
    ref = np.minimum.outer(np.arange(7.0), np.arange(7.0))
    assert np.array_equal(cov, ref)


def test_cov_matrix_symmetric_bit_exact(rng):
    w = Window((-2, -2), (2, 2))
    cov = build_cov_matrix(sheet_points(w, "integer"), [0.3, 0.8])
    assert np.array_equal(cov, cov.T)


def test_cov_matrix_matches_fbs_cov(rng):
    w = Window((-1, 0), (1, 2))
    pts = sheet_points(w, "integer")
    cov = build_cov_matrix(pts, [0.4, 0.9])
    for i in range(pts.shape[0]):
        for j in range(pts.shape[0]):
            assert cov[i, j] == pytest.approx(
                fbs_cov(pts[i], pts[j], [0.4, 0.9]), rel=1e-13, abs=1e-15
            )


def test_cov_matrix_grid_cap():
    pts = np.zeros((GRID_CAP + 1, 1))
    with pytest.raises(NumericRangeError, match="cap"):
        build_cov_matrix(pts, [0.5])


def test_sheet_points_exponential_clock():
    w = Window((-1,), (1,))
    np.testing.assert_allclose(
        sheet_points(w, "exponential")[:, 0],
        [math.exp(-1.0), 1.0, math.exp(1.0)],
        rtol=1e-15,
    )


def test_sheet_points_exponential_limit():
    w = Window((0,), (EXP_CLOCK_LIMIT + 1,))
    with pytest.raises(NumericRangeError, match="exponential clock"):
        sheet_points(w, "exponential")


def test_factor_covariance_reconstructs(rng):
    w = Window((0, 0), (3, 3))
    cov = build_cov_matrix(sheet_points(w, "integer"), [0.3, 0.7])
    l = factor_covariance(cov)
    np.testing.assert_allclose(l @ l.T, cov, atol=1e-12 * max(1.0, np.abs(cov).max()))


def test_factor_covariance_zero_rows_exact():
    cov = np.diag([0.0, 2.0, 0.0])
    l = factor_covariance(cov)
    assert np.all(l[0] == 0.0) and np.all(l[2] == 0.0)


def test_factor_covariance_rejects_asymmetric():
    with pytest.raises(DimensionMismatchError, match="not symmetric"):
        factor_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_factor_covariance_rejects_indefinite():
    with pytest.raises(NumericRangeError, match="indefinite"):
        factor_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_covariance_clips_tiny_negatives():
    # Rank-deficient PSD matrix whose eigh output dips below zero at
    # rounding level: must factor, not raise.
    v = np.array([1.0, 1.0, 1.0])
    cov = np.outer(v, v)
    l = factor_covariance(cov)
    np.testing.assert_allclose(l @ l.T, cov, atol=1e-12)


# ---------------------------------------------------------------------------
# Streams and the sampler


def test_substream_deterministic():
    a = substream(7, 3).standard_normal(5)
    b = substream(7, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_substream_distinct_cells():
    # Each (seed, replication) cell has its own stream.
    a = substream(7, 0).standard_normal(5)
    assert not np.array_equal(a, substream(7, 1).standard_normal(5))
    assert not np.array_equal(a, substream(8, 0).standard_normal(5))


def test_substream_counter_layout():
    # The group index is the top counter word; the key is the first two
    # uint64 words of SeedSequence(seed).
    state = substream(2**64 + 1, group=MAX_REPLICATION).bit_generator.state
    assert state["bit_generator"] == "Philox"
    assert state["state"]["counter"].tolist() == [0, 0, 0, MAX_REPLICATION]
    key = np.random.SeedSequence(2**64 + 1).generate_state(2, np.uint64)
    assert state["state"]["key"].tolist() == key.tolist()


def test_sampling_hashes_the_seed_once():
    # blocks() and sample_many derive the stream key once per call, not
    # once per group (G = 1 here, so ten groups).
    sampler = _identity_sampler(1, Window((0,), (3,)))
    want = [substream(5, g).standard_normal(4).tobytes() for g in range(10)]
    with mock.patch.object(gaussian_module, "DRAW_BLOCK", 4), \
            mock.patch.object(np.random, "SeedSequence", wraps=np.random.SeedSequence) as seq:
        blocks = [v.tobytes() for _, v in sampler.blocks(5, 10)]
        assert seq.call_count == 1
        many = [f.values.tobytes() for f in sampler.sample_many(5, range(10))]
        assert seq.call_count == 2
    assert blocks == many == want


def _identity_sampler(n, window):
    """A sampler whose factors and mixing are identities: its values are
    its standard normals, moved to (*window.shape, n)."""
    sampler = SheetSampler(np.eye(n), HurstSpec(np.full((n, window.N), 0.5)),
                           window, "integer")
    sampler._factors = [np.stack([np.eye(m)] * n) for m in window.shape]
    return sampler


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**130]) | st.integers(0, 2**70),
    reps=st.lists(st.sampled_from([0, 1, MAX_REPLICATION - 1, MAX_REPLICATION])
                  | st.integers(0, 600) | st.integers(0, MAX_REPLICATION),
                  min_size=1, max_size=5),
    n=st.integers(1, 3),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    block=st.sampled_from([1, 200, 1 << 15]),
)
@example(seed=2**32, reps=[MAX_REPLICATION, 0, 7], n=2, shape=[3, 2], block=200)
@example(seed=2**64 + 1, reps=[0, MAX_REPLICATION], n=3, shape=[1, 4, 2], block=1 << 15)
@example(seed=2**64 + 1, reps=[MAX_REPLICATION, 0], n=1, shape=[1], block=1)
def test_group_stream_contract(seed, reps, n, shape, block):
    # With G = max(1, DRAW_BLOCK // (n * volume)), replication r is row
    # r % G of substream(seed, r // G) in C order: sample_many row i is
    # sample(seed, reps[i]) byte for byte, a prefix draw of a group equals
    # the slice of the whole group, and blocks() yields one group per block.
    window = Window((0,) * len(shape), tuple(m - 1 for m in shape))
    sampler = _identity_sampler(n, window)
    rows_shape = (n, window.volume)
    with mock.patch.object(gaussian_module, "DRAW_BLOCK", block):
        size = sampler.group_size
        assert size == max(1, block // (n * window.volume))
        many = sampler.sample_many(seed, reps)
        for r, f in zip(reps, many):
            assert f.values.tobytes() == sampler.sample(seed, r).values.tobytes()
            g, row = divmod(r, size)
            group = substream(seed, g).standard_normal((size,) + rows_shape)
            prefix = substream(seed, g).standard_normal((row + 1,) + rows_shape)
            assert prefix.tobytes() == group[:row + 1].tobytes()
            normals = np.moveaxis(f.values, -1, 0).reshape(rows_shape)
            assert normals.tobytes() == group[row].tobytes()
        count = size + len(reps)
        parts = list(sampler.blocks(seed, count))
        assert [start for start, _ in parts] == list(range(0, count, size))
        for g, (_, values) in enumerate(parts):
            normals = np.moveaxis(values, -1, 1).reshape((len(values),) + rows_shape)
            assert normals.tobytes() == substream(seed, g).standard_normal(
                normals.shape).tobytes()
        whole = np.concatenate([v for _, v in parts])
        for r in {0, size - 1, size, count - 1}:
            assert sampler.sample(seed, r).values.tobytes() == whole[r].tobytes()


def test_sample_many_equals_single_samples():
    # Small and large counter words mixed in one block.
    h = HurstSpec([[0.5, 0.3], [0.9, 0.6]])
    sampler = SheetSampler(np.eye(2) + 0.2, h, Window((-1, 1), (2, 3)), "exponential")
    reps = [3, 2**32 + 5, 0, MAX_REPLICATION]
    many = sampler.sample_many(2**64 + 1, reps)
    for r, f in zip(reps, many):
        one = sampler.sample(2**64 + 1, r)
        assert f.values.tobytes() == one.values.tobytes()
        assert f.meta == one.meta == {"seed": 2**64 + 1, "replication": r}
    assert sampler.sample_many(4, []) == []


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_sampler_rejects_bad_seed(seed):
    sampler = SheetSampler(np.eye(1), HurstSpec([[0.5]]), Window((0,), (2,)), "integer")
    with pytest.raises(ConfigError, match="seed"):
        sampler.sample(seed, 0)
    with pytest.raises(ConfigError, match="seed"):
        sampler.sample_many(seed, range(3))


@pytest.mark.parametrize("rep", [-1, True, 2.0, MAX_REPLICATION + 1])
def test_sampler_rejects_bad_replication_index(rep):
    sampler = SheetSampler(np.eye(1), HurstSpec([[0.5]]), Window((0,), (2,)), "integer")
    with pytest.raises(ConfigError, match="replication"):
        sampler.sample(1, rep)
    with pytest.raises(ConfigError, match="replication"):
        sampler.sample_many(1, [0, rep])


@pytest.mark.parametrize("seed, reps, match", [
    (-1, 2, "seed must be >= 0"),
    (True, 2, "seed must be an integer"),
    (1.5, 2, "seed must be an integer"),
    (1, True, "replications must be an integer"),
    (1, 2.7, "replications must be an integer"),
])
def test_batch_rejects_bad_seed_and_count(seed, reps, match):
    with pytest.raises(ConfigError, match=match):
        sample_sheet_batch(np.eye(1), HurstSpec([[0.5]]), Window((0,), (1,)),
                           "integer", seed, reps)


@pytest.mark.parametrize("clock", ["integer", "exponential"])
@pytest.mark.parametrize("hurst, window", [
    ([[0.5]], Window((-3,), (4,))),
    ([[0.3, 0.7], [1.0, 0.45]], Window((-2, 1), (2, 3))),
    ([[0.25, 1.0, 0.8]], Window((-1, 0, -2), (1, 2, 0))),
])
def test_sampler_kron_factors_match_window_gram(hurst, window, clock):
    # The Kronecker product of the per-axis factors' Grams is the Gram of
    # the whole window, zero hyperplanes and H_j = 1 included; the mode
    # products apply the Kronecker product of the factors themselves.
    h = HurstSpec(hurst)
    mixing = np.eye(h.n) + 0.25
    sampler = SheetSampler(mixing, h, window, clock)
    pts = sheet_points(window, clock)
    draw = sampler.sample(seed=6, replication=2).values.reshape(-1, h.n)
    g, row = divmod(2, sampler.group_size)
    z = substream(6, g).standard_normal((row + 1, h.n, window.volume))[row]
    b = np.empty_like(draw)
    for k in range(h.n):
        kron_l, kron_c = np.ones((1, 1)), np.ones((1, 1))
        for factors in sampler._factors:
            kron_l = np.kron(kron_l, factors[k])
            kron_c = np.kron(kron_c, factors[k] @ factors[k].T)
        ref = build_cov_matrix(pts, h.row(k))
        assert np.abs(kron_c - ref).max() <= 1e-12 * np.abs(ref).max()
        b[:, k] = kron_l @ z[k]
    ref_draw = b @ mixing.T
    assert np.abs(draw - ref_draw).max() <= 1e-12 * np.abs(ref_draw).max()


def test_sampler_beyond_grid_cap_total_sites():
    # 6,400 sites: more than GRID_CAP in total, 80 per axis.
    w = Window((1, 1), (80, 80))
    assert w.volume > GRID_CAP
    f = SheetSampler(np.eye(1), HurstSpec([[0.3, 0.7]]), w, "integer").sample(seed=4)
    assert f.values.shape == (80, 80, 1)
    assert np.all(np.isfinite(f.values)) and np.any(f.values != 0.0)


def test_sampler_grid_cap_per_axis():
    w = Window((0,), (GRID_CAP,))
    with pytest.raises(NumericRangeError, match="cap"):
        SheetSampler(np.eye(1), HurstSpec([[0.5]]), w, "integer")


def test_sampler_zero_hyperplanes_exact():
    h = HurstSpec([[0.3, 0.7]])
    w = Window((0, 0), (3, 3))
    f = SheetSampler(np.eye(1), h, w, "integer").sample(seed=11)
    assert np.all(f.values[0, :, :] == 0.0)
    assert np.all(f.values[:, 0, :] == 0.0)
    assert not np.all(f.values == 0.0)


def test_sampler_determinism_across_instances():
    h = HurstSpec([[0.4], [0.8]])
    w = Window((0,), (4,))
    f1 = SheetSampler(np.eye(2), h, w, "integer").sample(seed=3, replication=2)
    f2 = SheetSampler(np.eye(2), h, w, "integer").sample(seed=3, replication=2)
    np.testing.assert_array_equal(f1.values, f2.values)
    assert f1.meta["seed"] == 3 and f1.meta["replication"] == 2


def test_sampler_mixing_linearity():
    # Doubling A doubles every sample exactly: the component draws are
    # identical, the mixing is applied afterwards.
    h = HurstSpec([[0.4], [0.8]])
    w = Window((0,), (4,))
    f1 = SheetSampler(np.eye(2), h, w, "integer").sample(seed=9)
    f2 = SheetSampler(2.0 * np.eye(2), h, w, "integer").sample(seed=9)
    np.testing.assert_array_equal(f2.values, 2.0 * f1.values)


def test_sampler_h_one_lies_on_line():
    # N = 1, H = 1: B_t = t B_1, so samples live on a one-dimensional
    # subspace up to factorization roundoff.
    h = HurstSpec([[1.0]])
    w = Window((0,), (5,))
    s = SheetSampler(np.eye(1), h, w, "integer")
    for rep in range(5):
        f = s.sample(seed=21, replication=rep)
        b1 = f.at((1,))[0]
        for t in range(6):
            assert f.at((t,))[0] == pytest.approx(t * b1, abs=1e-6 * max(1.0, abs(b1)))


def test_sampler_variance_matches_cov(rng):
    # Single-site second moment against the closed form, 4 SE margin.
    h = HurstSpec([[0.6]])
    w = Window((0,), (3,))
    s = SheetSampler(np.eye(1), h, w, "integer")
    reps = 3000
    vals = np.array([s.sample(seed=5, replication=r).at((3,))[0] for r in range(reps)])
    sq = vals ** 2
    ref = fbs_cov([3.0], [3.0], [0.6])
    se = sq.std(ddof=1) / math.sqrt(reps)
    assert abs(sq.mean() - ref) < 4.0 * se


def test_batch_save_load_roundtrip(tmp_path):
    h = HurstSpec([[0.3, 0.7]])
    w = Window((0, 0), (2, 2))
    batch = sample_sheet_batch(np.eye(1), h, w, "integer", seed=13, replications=4)
    batch.save(tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "values.npy").exists()
    assert (tmp_path / "rep_00003.csv").exists()
    back = load_batch(tmp_path)
    assert back.seed == 13
    assert back.replications == 4
    assert back.config["H"] == [[0.3, 0.7]]
    assert back.config["sampler"] == "kron-v3"
    for a, b in zip(batch.fields, back.fields):
        np.testing.assert_array_equal(a.values, b.values)


def test_sample_batch_checks_its_array():
    w = Window((0, 0), (1, 2))
    vals = np.zeros((3, 2, 3, 1))
    batch = SampleBatch(1, vals, w, "integer")
    assert batch.values is vals and not vals.flags.writeable
    assert len(batch.fields) == batch.replications == 3
    assert batch.fields[0].meta is None and not batch.fields[0].values.flags.writeable
    assert np.shares_memory(batch.fields[-1].values, vals[2])
    with pytest.raises(IndexError):
        batch.fields[3]
    with pytest.raises(DimensionMismatchError, match="shape"):
        SampleBatch(1, np.zeros((3, 2, 2, 1)), w, "integer")
    with pytest.raises(DimensionMismatchError, match="shape"):
        SampleBatch(1, np.zeros((2, 3, 1)), w, "integer")
    with pytest.raises(DimensionMismatchError, match="clock"):
        SampleBatch(1, np.zeros((3, 2, 3, 1)), w, "lunar")


def test_batch_field_meta_is_a_copy():
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.55]]), mixing=np.eye(1),
                    window=Window((-1,), (1,)), seed=4, replications=3)
    batch = fou_batch(cfg)
    batch.fields[0].meta["transforms"].append("x")
    assert batch.fields[0].meta == fou_field(cfg, 0).meta


def _saved_batch(tmp_path):
    batch = sample_sheet_batch(np.eye(1), HurstSpec([[0.3, 0.7]]),
                               Window((0, 0), (2, 2)), "integer", seed=13,
                               replications=5)
    batch.save(tmp_path)
    return json.loads((tmp_path / "manifest.json").read_text())


@pytest.mark.parametrize("key, value", [
    ("R", 2.7), ("R", "3"), ("R", True), ("R", 0), ("R", -1), ("R", None),
    ("seed", -1), ("seed", 1.5), ("seed", "13"), ("n", 0), ("n", 1.0), ("n", True),
])
def test_load_batch_rejects_bad_manifest_fields(tmp_path, key, value):
    man = _saved_batch(tmp_path)
    man[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(ConfigError, match=f"manifest {key} must be"):
        load_batch(tmp_path)


def test_load_batch_refuses_count_beyond_files_before_allocating(tmp_path):
    # The header of values.npy is checked against the manifest before
    # np.load reads (and allocates) anything.
    man = _saved_batch(tmp_path)
    man["R"] = 10**9
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    with mock.patch.object(np, "load", side_effect=AssertionError("data read")):
        with pytest.raises(DimensionMismatchError,
                           match=r"values.npy: holds <f8 values of shape \(5, 3, 3, 1\)"):
            load_batch(tmp_path)


def test_load_batch_missing_values_npy(tmp_path):
    _saved_batch(tmp_path)
    (tmp_path / "values.npy").unlink()
    with pytest.raises(ConfigError, match="has no values.npy$"):
        load_batch(tmp_path)


@pytest.mark.parametrize("values_npy", [False, True], ids=["csv-only", "with-npy"])
def test_load_batch_refuses_a_manifest_without_layout(tmp_path, values_npy):
    # A batch saved before the npy-v1 layout has only its CSVs and a
    # manifest without the layout tag: it is not readable, even if a
    # values.npy was put beside it later.
    man = _saved_batch(tmp_path)
    if not values_npy:
        (tmp_path / "values.npy").unlink()
    del man["layout"]
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(ConfigError, match="has no layout tag: .* no values.npy"):
        load_batch(tmp_path)


@pytest.mark.parametrize("layout", ["npy-v2", "", None, 1])
def test_load_batch_refuses_another_layout(tmp_path, layout):
    man = _saved_batch(tmp_path)
    man["layout"] = layout
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    with pytest.raises(ConfigError, match=f"has layout {layout!r}, expected 'npy-v1'$"):
        load_batch(tmp_path)


def _npy_bytes(values, **save):
    buf = io.BytesIO()
    np.save(buf, values, **save)
    return buf.getvalue()


FOREIGN_VALUES = {
    "truncated data": lambda v: _npy_bytes(v)[:-8],
    "truncated header": lambda v: _npy_bytes(v)[:40],
    "empty": lambda v: b"",
    "pickle": lambda v: pickle.dumps(v),
    "object array": lambda v: _npy_bytes(v.astype(object), allow_pickle=True),
    "float32": lambda v: _npy_bytes(v.astype(np.float32)),
    "int64": lambda v: _npy_bytes(v.astype(np.int64)),
    "big-endian": lambda v: _npy_bytes(v.astype(">f8")),
    "Fortran order": lambda v: _npy_bytes(np.asfortranarray(v)),
    "fewer replications": lambda v: _npy_bytes(v[:4]),
    "other window": lambda v: _npy_bytes(v[:, :2]),
    "other n": lambda v: _npy_bytes(np.concatenate([v, v], axis=-1)),
}


@pytest.mark.parametrize("kind", FOREIGN_VALUES)
def test_load_batch_refuses_a_foreign_values_npy(tmp_path, kind):
    _saved_batch(tmp_path)
    path = tmp_path / "values.npy"
    path.write_bytes(FOREIGN_VALUES[kind](np.load(path)))
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(path))}: "):
        load_batch(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_batch_refuses_non_finite_values(tmp_path, bad):
    _saved_batch(tmp_path)
    path = tmp_path / "values.npy"
    values = np.load(path)
    values[3, 1, 2, 0] = bad
    np.save(path, values)
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(path))} holds a non-finite value$"):
        load_batch(tmp_path)


BATCHES = {
    "sheet": lambda: sample_sheet_batch(np.array([[1.0, 0.3], [0.3, 1.0]]),
                                        HurstSpec([[0.3, 0.7], [0.6, 0.45]]),
                                        Window((-1, 0), (2, 2)), "integer", 7, 6),
    "first": lambda: fou_batch(FouConfig(
        kind="first", hurst=HurstSpec([[0.55, 0.6]]), mixing=np.eye(1),
        window=Window((0, 0), (3, 2)),
        theta=ThetaTuple([np.array([[0.9]]), np.array([[1.1]])]),
        policy=TruncationPolicy(depth=4), seed=3, replications=5)),
    "second": lambda: fou_batch(FouConfig(
        kind="second", hurst=HurstSpec([[0.55], [0.4]]), mixing=np.diag([1.0, 0.5]),
        window=Window((-1,), (2,)), seed=4, replications=7)),
}


@pytest.mark.parametrize("kind", BATCHES)
def test_load_batch_returns_the_saved_bytes(tmp_path, kind):
    # values.npy is the batch's data of record: the loaded values are the
    # saved ones bit for bit, and a rerun writes the same file.
    batch = BATCHES[kind]()
    batch.save(tmp_path / "a")
    BATCHES[kind]().save(tmp_path / "b")
    npy = (tmp_path / "a" / "values.npy").read_bytes()
    assert npy == (tmp_path / "b" / "values.npy").read_bytes()
    back = load_batch(tmp_path / "a")
    assert back.values.tobytes() == batch.values.tobytes()
    assert back.values.shape == batch.values.shape
    assert back.config == batch.config and back.seed == batch.seed
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["layout"] == "npy-v1"


def test_batch_save_refuses_non_finite_before_writing_anything(tmp_path):
    vals = np.zeros((4, 3, 1))
    vals[3, 2, 0] = np.nan
    batch = SampleBatch(1, vals, Window((0,), (2,)), "integer", {"n": 1})
    with pytest.raises(NumericRangeError, match="rep_00003.csv"):
        batch.save(tmp_path)
    assert not list(tmp_path.iterdir())


def test_batch_rep_equals_single_sample(monkeypatch):
    # Blocks of 200 normals hold 5 replications of 2 x 20 sites, so 12
    # replications end in a partial block; every batch kind must still
    # equal its one-replication route byte for byte.
    monkeypatch.setattr(gaussian_module, "DRAW_BLOCK", 200)
    h = HurstSpec([[0.5, 0.3], [0.9, 0.6]])
    w = Window((-1, 1), (3, 4))
    mixing = np.array([[1.0, 0.3], [0.3, 1.0]])
    batch = sample_sheet_batch(mixing, h, w, "integer", seed=2, replications=12)
    sampler = SheetSampler(mixing, h, w, "integer")
    pairs = [(batch, r, f, sampler.sample(2, r)) for r, f in enumerate(batch.fields)]
    w = Window((0, 0), (2, 1))
    first = FouConfig(kind="first", hurst=h, mixing=np.diag([1.0, 0.5]), window=w,
                      theta=ThetaTuple([np.diag([0.9, 1.2]), np.diag([1.1, 1.0])]),
                      policy=TruncationPolicy(depth=1), seed=5, replications=7)
    second = FouConfig(kind="second", hurst=h, mixing=np.diag([1.0, 0.5]),
                       window=Window((-2, 0), (2, 3)), seed=6, replications=12)
    for cfg in (first, second):
        batch = fou_batch(cfg)
        pairs += [(batch, r, f, fou_field(cfg, r)) for r, f in enumerate(batch.fields)]
    # values[r], the view fields[r] and the one-replication route agree.
    for batch, r, f, one in pairs:
        assert batch.values[r].tobytes() == f.values.tobytes() == one.values.tobytes()
        assert f.meta == one.meta and f.meta["replication"] == r
        assert (f.window, f.clock) == (one.window, one.clock)
        assert np.shares_memory(batch.values, f.values)


def test_batch_rejects_zero_replications():
    h = HurstSpec([[0.5]])
    with pytest.raises(ConfigError, match="replications"):
        sample_sheet_batch(np.eye(1), h, Window((0,), (1,)), "integer", 0, 0)
