"""Golden digests of the ``kron-v2`` sampler.

The manifest tag ``kron-v2`` promises the same draws for a given seed
whatever the code path that produces them.  These tests pin, as sha256
digests, the bytes of two sheet batches and of one batch of each FOU kind.

Each case pins three digests:

* ``normals``: the (n, volume) standard normals of every replication, as
  its reference stream ``substream(seed, r)`` gives them.  They involve
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
        "normals": "07c87f5ff41bb1963e70581930ad5ed2d5d36f24d6662c355cfc4e00d42ff19d",
        "factors": "dc4a06053400c9be35235d15530fb522b1d115f9ea253429423473bb766d8ff7",
        "values": "231152585f1fd66f6ab87407de7ae4ac7005f684728e03934d83400e0b88fecc",
    },
    "sheet-exponential": {
        "normals": "44269913220a251b882302ef1cf2ae19e8bdf3c7adf6506d67977a43e2eff8f2",
        "factors": "a9e773efc0155e76bf01e3f1fd4239349ddd9d4ebbb22b01ccfb90b0246cfe69",
        "values": "1bc7bb87fec044203d7f6cfec51d48ae85d60c2c060e4daa9227761a543152ad",
    },
    "fou-first": {
        "normals": "b2525372d844f19d8bd47044e630660c2a732622bff2927b48e46b5fae0e8305",
        "factors": "8e73744f320d323b3ccd0e5f11596358ea561c4f4fe35f78496a9350a4ce22b0",
        "values": "45b470fad98e8e223b9071f36c2712cc1cc64df0a27c336c12cdbcff27a378a2",
    },
    "fou-second": {
        "normals": "4289a4b103dcb91cdc2c77e8d8716f8dc7dfc683acb58c3115d7af6568c8ff5d",
        "factors": "cb081ed9721359f9f2c0510214fc8b5fb0d9264841a20544458ad039d2bdbb87",
        "values": "766f965ff7cf2e37abe7b269657eca5cbf7c8142b1cb410fc3e3e4aa6795ebe9",
    },
    "fou-second-large": {
        "normals": "8d511eba9fe3d7aa4418ea2e0c00a81908ba70c998c742a0f9a1b7a307f51c12",
        "factors": "eb0007102a6be13557213a94b9256f3f649eb0d16dfd863d6099812de8ad2973",
        "values": "b0cca7187162d182da58214f6604ee04df64cbef9307b58af1e9e080d3f76dbe",
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
    shape = (sampler.hurst.n, sampler.window.volume)
    normals = (substream(seed, r).standard_normal(shape) for r in range(replications))
    assert digest(normals) == golden["normals"]
    if digest(sampler._factors) != golden["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; value bytes are not comparable")
    batch = make_batch()
    assert batch.config["sampler"] == "kron-v2"
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
    "fidelity": "98cd25b567e08d352bc3181bb245ee58a19e6989de581947709e8986fcaad0fc",
    "increment-stationarity": "1185d9d9f24bdc5bf1a999e04f069b4dc36bc5410438f5ff421e60aa76b471ee",
    "moments": "519d4c3553a81c14c5bcd00a0b181124ee091eebb0c389d48aff8feb041b34c0",
    "moments-large": "fcf1a9c869bda33f3314b9f7fdabefcb2bfe7d8eff35130470de1ab0e648ff01",
    "self-similarity": "ac2f26d8033adc2a22847baaa7ae17c085e3873a64989dd43033f5dbf96fd37c",
    "stationarity": "a4f52aee16d55916feed1ddc1feb5ca54dd94bfe7bd0d0e43b9dfcc2b511b325",
    "stationarity-large": "ac67a169bf82e06b2109869d2d1bbfe4c0b645a5a055a8c9e357094bb672411c",
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
