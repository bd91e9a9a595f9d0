"""Golden digests of the ``kron-v3`` sampler.

The manifest tag ``kron-v3`` promises the same draws for a given seed
whatever the code path that produces them.  These tests pin, as sha256
digests, the bytes of two sheet batches and of one batch of each FOU kind.
The first kind's values are those of its ``kernel-v1`` solver, the second
kind's those of its ``folded-v1`` solver, and the stats digests those of
stats ``gram-v1``.

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
    "fou-second": (lambda: SheetSampler(SECOND.mixing, SECOND.hurst, SECOND.window,
                                        "exponential"),
                   SECOND.seed, SECOND.replications, lambda: fou_batch(SECOND)),
    "fou-second-large": (lambda: SheetSampler(LARGE.mixing, LARGE.hurst, LARGE.window,
                                              "exponential"),
                         LARGE.seed, LARGE.replications, lambda: fou_batch(LARGE)),
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
        "normals": "e19a307342180d8a585f3b74723c101a72757c038ecb2daf5e7c300f88c500a2",
        "factors": "cadfab5063be6d91a81e6af84f428a7488a7333f9e5fb2bfcca2be7977784598",
        "values": "7694683846ff48b6047c3702a50c1464e985b73d5981e3c6f95899f21d5ca8f6",
    },
    "fou-second": {
        "normals": "28e7c5d6ac59bb28ebddcdcc750469f8d108f52a5d7d7d7fff487d67dec8bf13",
        "factors": "cb081ed9721359f9f2c0510214fc8b5fb0d9264841a20544458ad039d2bdbb87",
        "values": "3a413e3bb0346640045ca133959634d4285d4958e071a42121b2c0b1e106c00f",
    },
    "fou-second-large": {
        "normals": "7e96f69c2ef4a5507d48bc535f2ce4a95d0f2de2fd3a142a204a8b3347bb6784",
        "factors": "eb0007102a6be13557213a94b9256f3f649eb0d16dfd863d6099812de8ad2973",
        "values": "538fe1d1f17825ea58e29418bf0136ea1f6db80fd93429e64191a34670849e9c",
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
    "increment-stationarity": "1161b30d97ad0ef6a059a4d9f6e3899785c273a921832c3d687a79b83ccc0475",
    "moments": "275b0291d2298c71b153ce513935d0a4b538079fd2740ec1966d3f1b2562dce1",
    "moments-large": "e21c5384f43a5afa5c12ebdc6707d30efeb94bd45fc893e4e71a8af80163443c",
    "self-similarity": "ab3b909801995e5054036da084ef2d578644493705db26501855b54a2579023c",
    "stationarity": "c51d75b7f32363a6e12b6906894d216b6dd21aec910b457cad60cd2d0eeab4b5",
    "stationarity-large": "5898597ae2116f295ffe79942d70e8dde42fe389e9bbe14318e7ad3a15a3cbbe",
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
