"""Golden digests of the ``kron-v3`` sampler.

The manifest tag ``kron-v3`` promises the same draws for a given seed
whatever the code path that produces them.  These tests pin, as sha256
digests, the bytes of two sheet batches and of one batch of each FOU kind.
The FOU values are those of the ``kernel-v2`` solver, and the stats
digests those of stats ``gram-v1``.

Each case pins three digests:

* ``normals``: the (n, P) standard normals of every replication (P is
  the window volume for a sheet), as
  the reference stream ``substream(seed, g)`` of each group g gives them
  (G replications per group, the last group possibly fewer).  They involve
  no linear algebra, so they are the same on every platform.
* ``factors``: the per-axis Gram factors.  They come from LAPACK's
  ``eigh``, whose last bits depend on the BLAS build and CPU.
* ``values``: the batch values.  These were recorded with numpy 2.4 and
  its bundled OpenBLAS on x86-64; they are checked only where the factors
  match the recorded ones, since a platform that rounds ``eigh``
  differently yields other value bytes from the same streams.
"""

import hashlib

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
        "normals": "1f7e7ba29f73481a189bca75793bc49b54422f0de3aa52f7efbbb49a8d0e057f",
        "factors": "dc4a06053400c9be35235d15530fb522b1d115f9ea253429423473bb766d8ff7",
        "values": "21420bad9ae40c9c496055fbebb09ed78d5018649987887cb4dd26698b53a4c9",
    },
    "sheet-exponential": {
        "normals": "d0a577ade9c64d7d6b72a86a013c00d66a285e4a5884d1f1959b26719c7af4be",
        "factors": "a9e773efc0155e76bf01e3f1fd4239349ddd9d4ebbb22b01ccfb90b0246cfe69",
        "values": "1c4aad96fa81a7098c8dc16a9aa9d5061fc7bd5abed5cbc0ea169e720100e7fb",
    },
    "fou-first": {
        "normals": "2b2ae96f97de6bec56bd32ff54ff335142f8c77a586ffccf35fc966019497648",
        "factors": "bcd939ba81178de53a7baaff0f446b9206d20c89e8e39b949495cc27bbbd7dce",
        "values": "7f5c564cfbc278852a33e5c94bb59786d861946e6641f892757705b35f9d62a4",
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
    if digest(sampler._factors) != golden["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; value bytes are not comparable")
    batch = make_batch()
    assert batch.config["sampler"] == "kron-v3"
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
    "fidelity": "be4e2ab5d1da641145af998a65ab8916db757bf8be80df440ce32d4ca58c1487",
    "increment-stationarity": "17e6cc3101475365f3ffe009f2b734324ee481b25ef6e6364285369f68516d01",
    "moments": "3ff20c4c2f37a9feaeae6e802ea6bcca62c66097e5ef820631d55e2d36d1a7ef",
    "moments-large": "1dd27df35affe13070b4258db5e2c5cc42d20e7c4c4505b144d890c9d61d13a4",
    "self-similarity": "ab3b909801995e5054036da084ef2d578644493705db26501855b54a2579023c",
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
    if digest(CASES[case][0]()._factors) != GOLDEN[case]["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; report bytes are not comparable")
    assert stats_digest(run(CASES[case][3]())) == STATS_GOLDEN[name]
