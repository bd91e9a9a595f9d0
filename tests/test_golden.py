"""Golden digests of the ``kron-v5`` sampler.

The manifest tag ``kron-v5`` promises the same draws for a given seed
whatever the code path that produces them.  These tests pin, as sha256
digests, the bytes of two sheet batches and of one batch of each FOU kind.
The FOU values are those of the ``kernel-v3`` solver, and the stats
digests those of stats ``gram-v1``.

Each case pins three digests:

* ``normals``: the (n, P) standard normals of every replication (P is
  the product of the factors' input lengths), as the reference stream
  ``substream(seed, g)`` of each group g gives them (G replications per
  group, the last group possibly fewer).  They involve no linear algebra,
  so they are the same on every platform.
* ``factors``: the per-axis factors, each a map times the factor of a
  stationary kernel, on the integer clock reduced to the window's length
  by a QR factorization.  They come from LAPACK's ``eigh`` and ``geqrf``,
  whose last bits depend on the BLAS build and CPU.
* ``values``: the batch values.  These were recorded with numpy 2.4 and
  its bundled OpenBLAS on x86-64; they are checked only where the factors
  match the recorded ones, since a platform that rounds ``eigh``
  differently yields other value bytes from the same streams.

Before a digest check is skipped for another platform's factors, the
factors must reproduce the law of their case, each within 1e-12 of the
largest entry of a Gram written out here from its closed form: the sheet's
1-D Gram on either clock, the Lamperti kernel K or, through each
eigen-coordinate's AR(1) filter, the fractional Gaussian noise
autocovariance gamma.  So a change of law fails; only a change in
``eigh``'s rounding skips.
"""

import hashlib
import math

import numpy as np
import pytest

from fieldcorrespond import (
    FouConfig,
    HurstSpec,
    MomentSummary,
    SheetSampler,
    ThetaTuple,
    TruncationPolicy,
    Window,
    derive_theta,
    empirical_moments,
    fidelity_check,
    fou_batch,
    increment_stationarity_check,
    sample_sheet_batch,
    self_similarity_check,
    stationarity_check,
)
from fieldcorrespond._jsonio import dumps_json
from fieldcorrespond.fou import _sampler
from fieldcorrespond.gaussian import substream

H2 = HurstSpec([[0.3, 0.7], [0.6, 0.45]])
FIRST = FouConfig(kind="first", hurst=H2, mixing=np.diag([1.0, 0.5]),
                  window=Window((0, 0), (3, 3)),
                  theta=ThetaTuple([np.diag([0.9, 1.2]), np.diag([1.1, 1.0])]),
                  policy=TruncationPolicy(depth=6), seed=2**32, replications=12)
SECOND = FouConfig(kind="second", hurst=HurstSpec([[0.3, 0.7], [0.6, 0.4]]),
                   mixing=np.diag([1.0, 0.5]), window=Window((-2, -1), (2, 2)),
                   seed=21, replications=50)
SHEET_INTEGER = (np.array([[1.0, 0.3], [0.3, 1.0]]), H2, Window((-1, 1), (3, 4)),
                 "integer", 2**64 + 1, 40)
SHEET_EXPONENTIAL = (np.diag([1.0, 0.5]), H2, Window((-2, -2), (2, 2)),
                     "exponential", 5, 40)
# More replications than numpy's reduction buffer (8192 doubles): the
# stats digests below then pin the summation order of long rows.
LARGE = FouConfig(kind="second", hurst=SECOND.hurst, mixing=SECOND.mixing,
                  window=Window((-1, -1), (1, 1)), seed=5, replications=9000)

# name: (sampler, seed, replications, batch)
CASES = {
    "sheet-integer": (lambda: SheetSampler(*SHEET_INTEGER[:4]), 2**64 + 1, 40,
                      lambda: sample_sheet_batch(*SHEET_INTEGER)),
    "sheet-exponential": (lambda: SheetSampler(*SHEET_EXPONENTIAL[:4]), 5, 40,
                          lambda: sample_sheet_batch(*SHEET_EXPONENTIAL)),
    "fou-first": (lambda: _sampler(FIRST), FIRST.seed, FIRST.replications,
                  lambda: fou_batch(FIRST)),
    "fou-second": (lambda: _sampler(SECOND), SECOND.seed, SECOND.replications,
                   lambda: fou_batch(SECOND)),
    "fou-second-large": (lambda: _sampler(LARGE), LARGE.seed, LARGE.replications,
                         lambda: fou_batch(LARGE)),
}

GOLDEN = {
    "sheet-integer": {
        "normals": "1f693f09fc007bedea8dcadc27681432b8a4d57d567da4366a4eab8713087f78",
        "factors": "094c8a7795f12f90be709da77f9fa12cd911025f25af6d2a5253a3beec89377c",
        "values": "f58b65c4201e2b8a8b791fed7acaf333bc66cb92a8b8bd4f87ef0c2692055ea8",
    },
    "sheet-exponential": {
        "normals": "d0a577ade9c64d7d6b72a86a013c00d66a285e4a5884d1f1959b26719c7af4be",
        "factors": "95daa61747dd5601c9a68affe3a24ac2c49c9629c2ea970c4a14c32b9985cdae",
        "values": "3bd5cd7da763e18fe78cf21a1fa6f5c7300ffbfd3c5a1336485c559f691962cc",
    },
    "fou-first": {
        "normals": "2b2ae96f97de6bec56bd32ff54ff335142f8c77a586ffccf35fc966019497648",
        "factors": "83c4e18987b57c19d3de4a4304d34541a559bbd067d95a9524d4606e51c0e454",
        "values": "c1be2dac39564827ac0144d1d2f5df13e8819a536237d9bf0d67512441e26776",
    },
    "fou-second": {
        "normals": "28e7c5d6ac59bb28ebddcdcc750469f8d108f52a5d7d7d7fff487d67dec8bf13",
        "factors": "0c182d3c7a2a88d96670a2b4f6342492c0c23f30f0dc02bb7fa28986759fe580",
        "values": "b0f0eb1d0580e859952d19a55fafd24983cb3c77c6fa62d39b791eaf2449f446",
    },
    "fou-second-large": {
        "normals": "7e96f69c2ef4a5507d48bc535f2ce4a95d0f2de2fd3a142a204a8b3347bb6784",
        "factors": "5f3969b7a8f0bf3c676653e4e8c77a9425364345a4f678f7211b2a756f2ad364",
        "values": "f7f8bfd19cbc4cd9daef8cc573fb28338ddadb59e1da854d91e6533f17cc90f7",
    },
}


def _fbm(x, y, h):
    return (abs(x) ** (2 * h) + abs(y) ** (2 * h) - abs(x - y) ** (2 * h)) / 2


def _toeplitz(kernel, size) -> np.ndarray:
    return np.array([[kernel(abs(t - s)) for s in range(size)] for t in range(size)])


def _sheet_grams(hurst, window, clock) -> list:
    """Per axis, the (n, 1, L, L) 1-D Grams of the sheet on ``clock``."""
    grams = []
    for j, (lo, hi) in enumerate(zip(window.lo, window.hi)):
        x = [math.exp(t) if clock == "exponential" else float(t) for t in range(lo, hi + 1)]
        grams.append([[[[_fbm(a, b, h) for b in x] for a in x]] for h in hurst.H[:, j]])
    return grams


def _second_grams(cfg) -> list:
    """Per axis, the (n, 1, L, L) Grams of the Lamperti kernel
    K(u) = (e^{uh} + e^{-uh} - |2 sinh(u/2)|^{2h}) / 2."""
    return [[[_toeplitz(lambda u: (math.exp(u * h) + math.exp(-u * h)
                                   - abs(2 * math.sinh(u / 2)) ** (2 * h)) / 2, size)]
             for h in cfg.hurst.H[:, j]] for j, size in enumerate(cfg.window.shape)]


def _first_grams(cfg) -> list:
    """Per axis, the (n, n, L, L) Grams E_a Gamma E_a^T: Gamma the
    fractional Gaussian noise Gram on the increment axis [lo - d, hi] and
    E_a[t, s] = e^{-(t - s) w_a} for s <= t, w_a eigen-coordinate a's rate."""
    _, w = cfg.theta.eigenbasis("first-kind FOU")
    grams = []
    for j, (size, d) in enumerate(zip(cfg.window.shape, cfg.policy.resolve(cfg.theta))):
        lag = np.arange(d, d + size)[:, np.newaxis] - np.arange(size + d)
        filters = [np.where(lag >= 0, np.exp(-np.maximum(lag, 0) * rate), 0.0)
                   for rate in w[j]]
        grams.append([[e @ _toeplitz(lambda u: ((u + 1) ** (2 * h) + abs(u - 1) ** (2 * h)
                                                - 2 * u ** (2 * h)) / 2, size + d) @ e.T
                       for e in filters] for h in cfg.hurst.H[:, j]])
    return grams


LAWS = {
    "sheet-integer": lambda: _sheet_grams(*SHEET_INTEGER[1:4]),
    "sheet-exponential": lambda: _sheet_grams(*SHEET_EXPONENTIAL[1:4]),
    "fou-first": lambda: _first_grams(FIRST),
    "fou-second": lambda: _second_grams(SECOND),
    "fou-second-large": lambda: _second_grams(LARGE),
}


def assert_factors_hold_the_law(name, sampler):
    for f, gram in zip(sampler._factors, LAWS[name]()):
        gram = np.asarray(gram)
        gap = np.abs(f @ np.swapaxes(f, -1, -2) - gram).max(axis=(-2, -1))
        assert np.all(gap <= 1e-12 * np.abs(gram).max(axis=(-2, -1))), name


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# The test keeps the name it had under ``kron-v1`` so that its ids stay
# stable across sampler tags; the digests are those of SAMPLER_VERSION.
@pytest.mark.parametrize("name", sorted(CASES))
def test_kron_v1_golden_digests(name):
    make_sampler, seed, replications, make_batch = CASES[name]
    golden = GOLDEN[name]
    sampler = make_sampler()
    size, shape = sampler.group_size, sampler._normals
    normals = (substream(seed, g).standard_normal((min(size, replications - start),) + shape)
               for g, start in enumerate(range(0, replications, size)))
    assert digest(normals) == golden["normals"]
    assert_factors_hold_the_law(name, sampler)
    if digest(sampler._factors) != golden["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; value bytes are not comparable")
    batch = make_batch()
    assert batch.config["sampler"] == "kron-v5"
    assert batch.replications == replications
    assert digest(f.values for f in batch.fields) == golden["values"]


# Golden digests of the stats reports and moment summaries on the batches
# above: a report's digest is the sha256 of its JSON text (the bytes of
# ``stats_report.json``), a summary's covers mean, mean_se, cov and cov_se.
# They are checked where the Gram factors match the recorded ones.
THETA2 = derive_theta(H2)

# name: (batch case, report or summary of its batch)
STATS_CASES = {
    "stationarity": ("fou-second", lambda b: stationarity_check(
        b, [(1, 0), (0, 1), (1, 1)])),
    "increment-stationarity": ("fou-first", lambda b: increment_stationarity_check(
        b, [(1, 0), (1, 1)])),
    "self-similarity": ("sheet-exponential", lambda b: self_similarity_check(
        b, (1, 1), THETA2)),
    "fidelity": ("sheet-integer", lambda b: fidelity_check(b, H2, SHEET_INTEGER[0])),
    "moments": ("fou-second", empirical_moments),
    "stationarity-large": ("fou-second-large", lambda b: stationarity_check(
        b, [(1, 0), (1, 1)], max_pairs=20)),
    "moments-large": ("fou-second-large", empirical_moments),
}

STATS_GOLDEN = {
    "fidelity": "7e9721afcd834de75db5ee2d0dff82a1c2ac4d15b8ec0f7ebb42ed6d02a9b7be",
    "increment-stationarity": "8f280b7979a79ecc994e4449f4e1f6331f57f33fad9986086995a428b426a5b1",
    "moments": "3ff20c4c2f37a9feaeae6e802ea6bcca62c66097e5ef820631d55e2d36d1a7ef",
    "moments-large": "1dd27df35affe13070b4258db5e2c5cc42d20e7c4c4505b144d890c9d61d13a4",
    "self-similarity": "6b79332757613f7857b81d92f17110bf428d70cb6576a695b4b87eec8b6f75f6",
    "stationarity": "87cd136445ac537bb6221b7fbab7fef7a61ae3f9098392f5188d71f51063b742",
    "stationarity-large": "3485d5f589db28b30d8317a5e4255907137828089e3ebc5516bb84fd0aba828b",
}


def stats_digest(result) -> str:
    if isinstance(result, MomentSummary):
        return digest([result.mean, result.mean_se, result.cov, result.cov_se])
    return hashlib.sha256(dumps_json(result.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(STATS_CASES))
def test_stats_golden_digests(name):
    case, run = STATS_CASES[name]
    sampler = CASES[case][0]()
    assert_factors_hold_the_law(case, sampler)
    if digest(sampler._factors) != GOLDEN[case]["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; report bytes are not comparable")
    assert stats_digest(run(CASES[case][3]())) == STATS_GOLDEN[name]
