"""Fractional Ornstein-Uhlenbeck construction tests.

The scalar first-kind autocovariance oracle is a double sum over
increment covariances computed with plain Python; the second-kind
stationarity oracle works directly on the exact covariance of the
composed linear map, with no sampling at all.  The per-axis kernels are
checked against references in stdlib ``decimal`` arithmetic.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fieldcorrespond import (
    Ar1System,
    CommutationError,
    ConfigError,
    FieldWindow,
    FouConfig,
    HurstSpec,
    NumericRangeError,
    SheetSampler,
    ThetaTuple,
    TruncationPolicy,
    Window,
    ar1_residual,
    build_cov_matrix,
    derive_theta,
    fbs_cov,
    fou_batch,
    fou_field,
    lamperti_inv,
    m_inverse_truncated,
    mixing_commutes,
    sample_sheet_batch,
    sheet_points,
    stationary_solution,
)
from fieldcorrespond import gaussian as gaussian_module
from fieldcorrespond.fou import _sampler
from fieldcorrespond.gaussian import _fgn_cov, _kernel_factors, _lamperti_cov


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


def _padded(cfg) -> Window:
    """The padded window [lo - depth - 1, hi] of a first-kind config."""
    depth = cfg.policy.resolve(cfg.theta)
    return Window(tuple(l - d - 1 for l, d in zip(cfg.window.lo, depth)), cfg.window.hi)


def _driving_sheet(cfg, r) -> FieldWindow:
    """The mixed integer-clock sheet on the padded window whose increments
    the first kind's factors draw from cfg's seed: the fractional Gaussian
    noise on the increment window [lo - depth, hi] drawn from the same
    normals, cumulated along every axis from zeros on the low faces.
    Replication r is the stationary AR(1) solution it drives."""
    pad = _padded(cfg)
    inc = Window(tuple(l + 1 for l in pad.lo), pad.hi)
    noise = SheetSampler(cfg.mixing, cfg.hurst, inc, "integer", _factors=[
        _kernel_factors(_fgn_cov, h, lo, hi)
        for h, lo, hi in zip(cfg.hurst.H.T, inc.lo, inc.hi)]).sample(cfg.seed, r)
    g = np.pad(noise.values, [(1, 0)] * inc.N + [(0, 0)])
    for axis in range(inc.N):
        g = np.cumsum(g, axis=axis)
    return FieldWindow(pad, g, "integer", noise.meta)


def _ar1_residual(x, cfg, r) -> float:
    """Largest AR(1) residual of x against replication r's driving sheet."""
    return float(np.max(np.abs(ar1_residual(x, _driving_sheet(cfg, r), cfg.theta).values)))


def test_first_kind_satisfies_ar1():
    h = HurstSpec([[0.35, 0.6]])
    theta = ThetaTuple([np.array([[0.9]]), np.array([[1.1]])])
    cfg = FouConfig(kind="first", hurst=h, mixing=np.eye(1),
                    window=Window((-2, -2), (2, 2)), theta=theta,
                    policy=TruncationPolicy(eps=1e-6), seed=17, replications=1)
    for rep in range(3):
        assert _ar1_residual(fou_field(cfg, rep), cfg, rep) <= 1e-12


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
    assert _ar1_residual(x, cfg, 0) <= 1e-12


def _sampler_cov(cfg) -> np.ndarray:
    """The covariance cfg's sampler draws from: its map applied to identity
    normals, over (site, component) in C order."""
    sampler = _sampler(cfg)
    n, p = sampler._normals
    v = sampler._mix(np.eye(n * p).reshape(n * p, n, p)).reshape(n * p, -1)
    return v.T @ v


def _exact_cov(cfg) -> np.ndarray:
    """L C L^T from public pieces: C the Gram of the mixed integer-clock
    sheet on the padded window, L the map m_inverse_truncated then
    lamperti_inv, its columns the images of unit impulses."""
    pad, n, a = _padded(cfg), cfg.hurst.n, cfg.mixing
    pts = sheet_points(pad, "integer")
    c = sum(np.kron(build_cov_matrix(pts, cfg.hurst.H[k]), np.outer(a[:, k], a[:, k]))
            for k in range(n))
    columns = []
    for impulse in np.eye(pad.volume * n):
        g = FieldWindow(pad, impulse.reshape(pad.shape + (n,)))
        y = m_inverse_truncated(g, cfg.theta, cfg.policy, cfg.window)
        columns.append(lamperti_inv(y, cfg.theta).values.reshape(-1))
    l = np.array(columns).T
    return l @ c @ l.T


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("rotated", [False, True])
def test_first_kind_exact_law(N, rotated):
    # The first kind is drawn from per-axis factors of its own law, not
    # through the transforms; its covariance must be that of the AR(1)
    # route on the padded sheet, truncation included.
    mats = [np.diag([0.9, 1.3]), np.diag([1.1, 0.7])][:N]
    if rotated:
        c, s = math.cos(0.4), math.sin(0.4)
        r = np.array([[c, -s], [s, c]])
        mats = [r @ m @ r.T for m in mats]
    cfg = FouConfig(kind="first", hurst=HurstSpec(np.array([[0.3, 0.7], [0.6, 0.45]])[:, :N]),
                    mixing=np.array([[1.0, 0.4], [-0.3, 0.8]]),
                    window=Window((-1,) * N, (2, 1)[:N]), theta=ThetaTuple(mats),
                    policy=TruncationPolicy(depth=3))
    exact = _exact_cov(cfg)
    assert np.max(np.abs(_sampler_cov(cfg) - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_first_kind_grid_cap_counts_coordinate_rows(monkeypatch):
    # n * L_j = 10 factor rows exceed a cap of 9, though the increment axis
    # (5 + 2 = 7 sites) fits; nothing is drawn.
    monkeypatch.setattr(gaussian_module, "GRID_CAP", 9)
    cfg = FouConfig(kind="first", hurst=HurstSpec([[0.4], [0.6]]), mixing=np.eye(2),
                    window=Window((0,), (4,)), theta=ThetaTuple([np.diag([0.8, 1.2])]),
                    policy=TruncationPolicy(depth=2))

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(gaussian_module, "_streams", no_draws)
    for draw in (fou_batch, fou_field):
        with pytest.raises(NumericRangeError, match="10 rows over 7 increment sites"):
            draw(cfg)


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


def test_second_kind_is_lamperti_inv_of_the_exponential_sheet():
    # The exponential-clock sheet's factors are diag(e^{th}) times the
    # second kind's, and both draw the same normals from one seed; with A
    # commuting with the derived clock exponentials, the Lamperti pullback
    # of each sheet replication is the second-kind replication.
    h, a, w = HurstSpec([[0.3, 0.7], [0.6, 0.4]]), np.diag([1.0, 0.5]), Window((-2, -2), (2, 2))
    sheet = sample_sheet_batch(a, h, w, "exponential", seed=9, replications=30)
    second = fou_batch(FouConfig(kind="second", hurst=h, mixing=a, window=w, seed=9,
                                 replications=30))
    for r, y in enumerate(sheet.fields):
        assert np.abs(lamperti_inv(y, derive_theta(h)).values - second.values[r]).max() <= 1e-12


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
    assert man["sampler"] == "kron-v5"
    assert man["solver"] == "kernel-v3"


def _second_kind_cov(cfg) -> np.ndarray:
    """The exact second-kind covariance over (site, component) in C order:
    sum_k A[:, k] A[:, k]^T prod_j e^{-H_j^(k) (t_j + s_j)} times the
    sheet's covariance at (e^t, e^s), the Lamperti pullback of the
    exponential-clock sheet."""
    sites = np.array(list(cfg.window.sites()), dtype=float)
    a = cfg.mixing
    return sum(np.kron(np.array([[math.exp(-h @ (t + s)) * fbs_cov(np.exp(t), np.exp(s), h)
                                  for s in sites] for t in sites]),
                       np.outer(a[:, k], a[:, k]))
               for k, h in enumerate(cfg.hurst.H))


@pytest.mark.parametrize("kind", ["first", "second"])
def test_fou_batch_equals_single_replications(monkeypatch, kind):
    # The batch draws replications in blocks of 640 normals: 16
    # replications of 2 x 20 for the second kind, 2 of 2 x 11 x 10
    # increment sites for the first, so 37 spans several blocks and a
    # partial last one.  Each replication must equal fou_field byte for
    # byte.  The first kind must equal, with the same metadata and to 1e-12
    # relative to the field's largest value, the stationary AR(1) solution
    # driven by the sheet whose increments its factors draw; the second
    # kind's sampler must draw the Lamperti pullback's exact law.
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
    if kind == "second":
        exact = _second_kind_cov(cfg)
        assert np.max(np.abs(_sampler_cov(cfg) - exact)) <= 1e-12 * np.max(np.abs(exact))
    for r, f in enumerate(batch.fields):
        one = fou_field(cfg, r)
        assert f.values.tobytes() == one.values.tobytes()
        others = [one]
        if kind == "first":
            explicit = stationary_solution(
                Ar1System(cfg.theta, _driving_sheet(cfg, r), cfg.policy), cfg.window)
            gap = np.max(np.abs(f.values - explicit.values))
            assert gap <= 1e-12 * np.max(np.abs(explicit.values))
            others.append(explicit)
        for other in others:
            assert f.meta == other.meta
            assert f.clock == other.clock and f.window == other.window


def test_fou_batch_save_load(tmp_path):
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.55]]), mixing=np.eye(1),
                    window=Window((-1,), (1,)), seed=4, replications=3)
    batch = fou_batch(cfg)
    batch.save(tmp_path)
    from fieldcorrespond import load_batch

    back = load_batch(tmp_path)
    assert back.config["kind"] == "second"
    assert back.config["solver"] == "kernel-v3"
    for a, b in zip(batch.fields, back.fields):
        np.testing.assert_array_equal(a.values, b.values)



KERNEL_HURST = [0.05, 0.7, 0.95, 1.0]


def _lamperti_ref(size: int, h: float) -> np.ndarray:
    """K(0), ..., K(size - 1) in 40-digit decimal arithmetic:
    K(u) = (e^{uh} (1 - (1 - e^{-u})^{2h}) + e^{-uh}) / 2, the first term
    summed as the binomial series sum_k (-1)^{k+1} C(2h, k) e^{(h-k)u}."""
    out = [1.0]
    with localcontext() as ctx:
        ctx.prec = 40
        two_h, tiny = 2 * Decimal(h), Decimal(10) ** -40
        for u in map(Decimal, range(1, size)):
            acc, coef, k = (-u * two_h / 2).exp(), Decimal(1), 1
            while True:
                coef *= (two_h - k + 1) / k
                term = coef * ((two_h / 2 - k) * u).exp()
                acc += term if k % 2 else -term
                if coef == 0 or abs(term) < tiny:
                    break
                k += 1
            out.append(float(acc / 2))
    return np.array(out)


def _fgn_ref(size: int, h: float) -> np.ndarray:
    """gamma(0), ..., gamma(size - 1) in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        two_h = 2 * Decimal(h)
        p = [Decimal(0)] + [(two_h * Decimal(v).ln()).exp() for v in range(1, size + 1)]
        return np.array([float((p[u + 1] + p[abs(u - 1)] - 2 * p[u]) / 2)
                         for u in range(size)])


@pytest.mark.parametrize("h", KERNEL_HURST)
def test_kernels_match_decimal_reference(h):
    # Both kernels are evaluated in forms that neither cancel nor overflow,
    # so they are accurate to rounding at every lag up to GRID_CAP: K in
    # absolute terms, gamma (which falls as u^{2h-2}) relative to itself.
    size = gaussian_module.GRID_CAP
    assert np.max(np.abs(_lamperti_cov(size, h) - _lamperti_ref(size, h))) <= 1e-15
    ref = _fgn_ref(size, h)
    assert np.max(np.abs(_fgn_cov(size, h) - ref) / np.abs(ref)) <= 1e-15


@pytest.mark.parametrize("h", KERNEL_HURST)
@pytest.mark.parametrize("lo, hi", [(0, 30), (-15, 15)])
def test_second_kind_law_is_the_lamperti_kernel(h, lo, hi):
    # The sampler draws the stationary kernel K(t - s) on the integer
    # window itself, wherever the window lies.
    cfg = FouConfig(kind="second", hurst=HurstSpec([[h]]), mixing=np.eye(1),
                    window=Window((lo,), (hi,)))
    ref = _lamperti_ref(hi - lo + 1, h)
    lag = np.abs(np.subtract.outer(np.arange(hi - lo + 1), np.arange(hi - lo + 1)))
    assert np.max(np.abs(_sampler_cov(cfg) - ref[lag])) <= 1e-12


@pytest.mark.parametrize("kind", ["first", "second"])
def test_shifted_window_gives_the_same_bytes(kind):
    # Both kinds are stationary and their factors depend on the window's
    # shape alone, so moving the window changes neither law nor bytes.
    extra = {}
    if kind == "first":
        extra = {"theta": ThetaTuple([np.diag([0.9, 1.2]), np.diag([1.1, 1.0])]),
                 "policy": TruncationPolicy(depth=6)}

    def values(lo, hi):
        return fou_batch(FouConfig(kind=kind, hurst=HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
                                   mixing=np.diag([1.0, 0.5]), window=Window(lo, hi),
                                   seed=5, replications=3, **extra)).values

    assert values((0, 0), (5, 6)).tobytes() == values((25, -7), (30, -1)).tobytes()


def test_second_kind_grid_cap_refuses_before_drawing(monkeypatch):
    # A 10-site axis exceeds a cap of 9 whatever the other axis; nothing is
    # drawn.
    monkeypatch.setattr(gaussian_module, "GRID_CAP", 9)
    cfg = FouConfig(kind="second", hurst=HurstSpec([[0.4, 0.6]]), mixing=np.eye(1),
                    window=Window((0, 100), (2, 109)))

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(gaussian_module, "_streams", no_draws)
    for draw in (fou_batch, fou_field):
        with pytest.raises(NumericRangeError, match=r"axis of 10 sites, \[100, 109\], exceeds"):
            draw(cfg)
