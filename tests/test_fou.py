"""Fractional Ornstein-Uhlenbeck construction tests.

The scalar first-kind autocovariance oracle is a double sum over
increment covariances computed with plain Python; the second-kind
stationarity oracle works directly on the exact covariance of the
composed linear map, with no sampling at all.
"""

import math

import numpy as np
import pytest

from fieldcorrespond import (
    Ar1System,
    CommutationError,
    ConfigError,
    FouConfig,
    HurstSpec,
    SheetSampler,
    ThetaTuple,
    TruncationPolicy,
    Window,
    ar1_residual,
    derive_theta,
    fbs_cov,
    fou_batch,
    fou_field,
    fou_noise,
    lamperti_inv,
    mixing_commutes,
    stationary_solution,
)


def test_derive_theta_diagonal():
    h = HurstSpec([[0.3, 0.7], [0.5, 0.9]])
    theta = derive_theta(h)
    assert theta.N == 2 and theta.n == 2
    np.testing.assert_array_equal(theta.mats[0], np.diag([0.3, 0.5]))
    np.testing.assert_array_equal(theta.mats[1], np.diag([0.7, 0.9]))


def test_mixing_commutes_identity():
    theta = derive_theta(HurstSpec([[0.3], [0.8]]))
    ok, defect = mixing_commutes(np.eye(2), theta)
    assert ok and defect == 0.0


def test_mixing_commutes_equal_rows():
    # Equal Hurst rows make the derived tuple scalar, so any mixing works.
    theta = derive_theta(HurstSpec([[0.6], [0.6]]))
    ok, _ = mixing_commutes(np.array([[1.0, 0.5], [0.5, 1.0]]), theta)
    assert ok


def test_mixing_commutes_detects_coupling():
    theta = derive_theta(HurstSpec([[0.2], [0.9]]))
    ok, defect = mixing_commutes(np.array([[1.0, 1.0], [0.0, 1.0]]), theta)
    assert not ok and defect > 1e-3


def test_first_kind_requires_theta():
    h = HurstSpec([[0.4]])
    with pytest.raises(ConfigError, match="explicit tuple"):
        FouConfig(kind="first", hurst=h, mixing=np.eye(1), window=Window((0,), (2,)))


def test_first_kind_theta_shape_check():
    h = HurstSpec([[0.4]])
    theta = ThetaTuple([np.eye(2)])
    with pytest.raises(ConfigError, match="does not match"):
        FouConfig(kind="first", hurst=h, mixing=np.eye(1),
                  window=Window((0,), (2,)), theta=theta)


def test_second_kind_rejects_explicit_theta():
    h = HurstSpec([[0.4]])
    with pytest.raises(ConfigError, match="cannot be honored"):
        FouConfig(kind="second", hurst=h, mixing=np.eye(1),
                  window=Window((0,), (2,)), theta=ThetaTuple([np.eye(1)]))


def test_second_kind_derives_theta():
    h = HurstSpec([[0.3], [0.8]])
    cfg = FouConfig(kind="second", hurst=h, mixing=np.eye(2),
                    window=Window((-1,), (2,)))
    np.testing.assert_array_equal(cfg.theta.mats[0], np.diag([0.3, 0.8]))


def test_second_kind_rejects_noncommuting_mixing():
    h = HurstSpec([[0.2], [0.9]])
    with pytest.raises(CommutationError, match="block-diagonal"):
        FouConfig(kind="second", hurst=h,
                  mixing=np.array([[1.0, 1.0], [0.0, 1.0]]),
                  window=Window((-1,), (2,)))


@pytest.mark.parametrize("field, value, match", [
    ("seed", -1, "seed must be >= 0"),
    ("seed", True, "seed must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("replications", True, "replications must be an integer"),
    ("replications", 2.7, "replications must be an integer"),
    ("replications", 0, "replications must be >= 1"),
])
def test_config_rejects_bad_seed_and_count(field, value, match):
    kwargs = {"seed": 1, "replications": 2, field: value}
    with pytest.raises(ConfigError, match=match):
        FouConfig(kind="second", hurst=HurstSpec([[0.4]]), mixing=np.eye(1),
                  window=Window((-1,), (1,)), **kwargs)


def test_config_normalizes_integer_types():
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.4]]), mixing=np.eye(1),
                    window=Window((-1,), (1,)), seed=np.int64(3),
                    replications=np.uint8(2))
    assert type(cfg.seed) is int and type(cfg.replications) is int


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        FouConfig(kind="third", hurst=HurstSpec([[0.5]]), mixing=np.eye(1),
                  window=Window((0,), (1,)))


def test_zero_mixing_gives_zero_fields():
    h = HurstSpec([[0.4]])
    theta = ThetaTuple([np.array([[0.8]])])
    first = FouConfig(kind="first", hurst=h, mixing=np.zeros((1, 1)),
                      window=Window((-1,), (2,)), theta=theta,
                      policy=TruncationPolicy(depth=4), seed=3)
    assert np.all(fou_field(first).values == 0.0)
    second = FouConfig(kind="second", hurst=h, mixing=np.zeros((1, 1)),
                       window=Window((-1,), (2,)), seed=3)
    assert np.all(fou_field(second).values == 0.0)


def test_first_kind_satisfies_ar1(rng):
    h = HurstSpec([[0.35, 0.6]])
    theta = ThetaTuple([np.array([[0.9]]), np.array([[1.1]])])
    cfg = FouConfig(kind="first", hurst=h, mixing=np.eye(1),
                    window=Window((-2, -2), (2, 2)), theta=theta,
                    policy=TruncationPolicy(eps=1e-6), seed=17, replications=1)
    for rep in range(3):
        x = fou_field(cfg, rep)
        g = fou_noise(cfg, rep)
        res = ar1_residual(x, g, cfg.theta)
        assert np.max(np.abs(res.values)) <= 1e-12


def test_first_kind_wide_spectrum():
    # The derived depth (383 at eps=1e-8) times the largest eigenvalue (2.0)
    # exceeds log(finfo.max); only weights that underflow reach that far.
    h = HurstSpec([[0.3], [0.6]])
    theta = ThetaTuple([np.diag([0.05, 2.0])])
    cfg = FouConfig(kind="first", hurst=h, mixing=np.eye(2),
                    window=Window((0,), (5,)), theta=theta, seed=4)
    assert cfg.policy.resolve(theta)[0] * 2.0 > math.log(np.finfo(float).max)
    x = fou_field(cfg, 0)
    assert np.all(np.isfinite(x.values))
    res = ar1_residual(x, fou_noise(cfg, 0), theta)
    assert np.max(np.abs(res.values)) <= 1e-12


def test_fou_noise_only_first_kind():
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.5]]), mixing=np.eye(1),
                    window=Window((0,), (2,)))
    with pytest.raises(ConfigError, match="first-kind"):
        fou_noise(cfg)


def test_first_kind_scalar_autocovariance():
    # Empirical lag-covariances against the exact double-sum form
    #   cov(X_t, X_s) = sum_{j<=t} sum_{j'<=s} e^{th(j-t)} e^{th(j'-s)}
    #                      gamma_H(j - j'),
    # gamma_H(d) = (|d+1|^{2H} + |d-1|^{2H} - 2 |d|^{2H}) / 2,
    # truncated at the configured depth.
    th, hh = 1.0, 0.35
    theta = ThetaTuple([np.array([[th]])])
    depth = 14
    cfg = FouConfig(kind="first", hurst=HurstSpec([[hh]]), mixing=np.eye(1),
                    window=Window((0,), (2,)), theta=theta,
                    policy=TruncationPolicy(depth=depth), seed=29,
                    replications=4000)
    batch = fou_batch(cfg)
    data = np.stack([f.values[:, 0] for f in batch.fields])

    def gamma(d):
        d = abs(d)
        return 0.5 * ((d + 1) ** (2 * hh) + abs(d - 1) ** (2 * hh) - 2 * d ** (2 * hh))

    def exact_cov(t, s):
        lo = -depth
        acc = 0.0
        for j in range(lo, t + 1):
            for jp in range(lo, s + 1):
                acc += math.exp(th * (j - t)) * math.exp(th * (jp - s)) * gamma(j - jp)
        return acc

    for t, s in ((0, 0), (2, 2), (0, 2)):
        emp = data[:, t] * data[:, s]
        se = emp.std(ddof=1) / math.sqrt(emp.shape[0])
        assert abs(emp.mean() - exact_cov(t, s)) < 4.0 * se


def test_second_kind_exactly_stationary_covariance():
    # The composed map is linear in the sheet, so its covariance is exact:
    # C(t, s) = A^2 e^{-H(t+s)} fbs_cov(e^t, e^s).  Stationarity means the
    # matrix is constant along diagonals.
    hh, a = 0.4, 1.7
    ts = range(-2, 4)
    c = {
        (t, s): a * a * math.exp(-hh * (t + s))
        * fbs_cov([math.exp(t)], [math.exp(s)], [hh])
        for t in ts
        for s in ts
    }
    for t in range(-2, 3):
        for s in range(-2, 3):
            assert c[(t, s)] == pytest.approx(c[(t + 1, s + 1)], rel=1e-12)


def test_second_kind_empirical_matches_exact_covariance():
    hh, a = 0.4, 1.7
    cfg = FouConfig(kind="second", hurst=HurstSpec([[hh]]),
                    mixing=np.array([[a]]), window=Window((-1,), (2,)),
                    seed=31, replications=4000)
    batch = fou_batch(cfg)
    data = np.stack([f.values[:, 0] for f in batch.fields])
    for i, t in enumerate(range(-1, 3)):
        emp = data[:, i] ** 2
        ref = a * a * math.exp(-2 * hh * t) * fbs_cov(
            [math.exp(t)], [math.exp(t)], [hh]
        )
        se = emp.std(ddof=1) / math.sqrt(emp.shape[0])
        assert abs(emp.mean() - ref) < 4.0 * se


def test_fou_batch_manifest_and_rerun():
    # A rerun and the one-replication route give the same bytes.
    h = HurstSpec([[0.45]])
    theta = ThetaTuple([np.array([[1.0]])])
    cfg = FouConfig(kind="first", hurst=h, mixing=np.eye(1),
                    window=Window((-1,), (2,)), theta=theta,
                    policy=TruncationPolicy(depth=5), seed=8, replications=6)
    b1 = fou_batch(cfg)
    b2 = fou_batch(cfg)
    for r, (x, y) in enumerate(zip(b1.fields, b2.fields)):
        assert x.values.tobytes() == y.values.tobytes()
        assert x.values.tobytes() == fou_field(cfg, r).values.tobytes()
    man = b1.manifest()
    assert man["kind"] == "first"
    assert man["seed"] == 8 and man["R"] == 6
    assert man["policy"]["depth"] == [5]
    assert man["clock"] == "integer"
    assert man["transforms"] == "eigenbasis-v1"
    assert man["sampler"] == "kron-v3"


def _explicit_route(cfg, r):
    """Replication r built from the public single-field maps."""
    if cfg.kind == "first":
        return stationary_solution(Ar1System(cfg.theta, fou_noise(cfg, r), cfg.policy),
                                   cfg.window)
    y = SheetSampler(cfg.mixing, cfg.hurst, cfg.window, "exponential").sample(cfg.seed, r)
    return lamperti_inv(y, cfg.theta)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_fou_batch_equals_single_replications(monkeypatch, kind):
    # The batch draws and solves replications in blocks of 640 normals:
    # 16 replications of 2 x 20 sites for the second kind, 2 of 2 x 12 x 11
    # noise sites for the first, so 37 spans several blocks and a partial
    # last one.  Each replication must equal the explicit single-field
    # route and fou_field byte for byte, metadata included.
    import fieldcorrespond.gaussian as gaussian_module

    monkeypatch.setattr(gaussian_module, "DRAW_BLOCK", 640)
    extra = {}
    if kind == "first":
        extra = {"theta": ThetaTuple([np.diag([0.9, 1.2]), np.diag([1.1, 1.0])]),
                 "policy": TruncationPolicy(depth=6)}
    cfg = FouConfig(kind=kind, hurst=HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
                    mixing=np.diag([1.0, 0.5]),
                    window=Window((-2, -1), (2, 2)), seed=21, replications=37, **extra)
    batch = fou_batch(cfg)
    assert batch.replications == 37
    for r, f in enumerate(batch.fields):
        for one in (_explicit_route(cfg, r), fou_field(cfg, r)):
            assert f.values.tobytes() == one.values.tobytes()
            assert f.meta == one.meta
            assert f.clock == one.clock and f.window == one.window


def test_fou_batch_save_load(tmp_path):
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.55]]), mixing=np.eye(1),
                    window=Window((-1,), (1,)), seed=4, replications=3)
    batch = fou_batch(cfg)
    batch.save(tmp_path)
    from fieldcorrespond import load_batch

    back = load_batch(tmp_path)
    assert back.config["kind"] == "second"
    for a, b in zip(batch.fields, back.fields):
        np.testing.assert_array_equal(a.values, b.values)

