"""Golden digests of the ``kron-v1`` sampler.

The manifest tag ``kron-v1`` promises the same draws for a given seed
whatever the code path that produces them.  These tests pin, as sha256
digests, the bytes of two sheet batches and of one batch of each FOU kind.

Each case pins three digests:

* ``normals``: the standard normals of every (replication, component)
  cell as the bulk stream derivation gives them.  They involve no linear
  algebra, so they are the same on every platform.
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
from fieldcorrespond.gaussian import stream_states

from conftest import pcg64_normals

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
        "normals": "be612bcc10437ec2cdd104c623167f7a3d58e12b99302a34fb5107fd525d0e9a",
        "factors": "dc4a06053400c9be35235d15530fb522b1d115f9ea253429423473bb766d8ff7",
        "values": "9337bfd99ef107a1d59a5944989cf385224ab82f82631b033e0b9776717855f7",
    },
    "sheet-exponential": {
        "normals": "97ddfdefe3f8d48621f0d2bd49f3877bffd0d39726b2b912bd1a5427141aa3ba",
        "factors": "a9e773efc0155e76bf01e3f1fd4239349ddd9d4ebbb22b01ccfb90b0246cfe69",
        "values": "7a4c570cbcd4fc7ab8a630a51bb5413a4d8aa56b70301d5819e33d0cc7f9d825",
    },
    "fou-first": {
        "normals": "c94090a5da667b0b806242d9f8583c83785ef38ca8500012f7f32123334047e6",
        "factors": "8e73744f320d323b3ccd0e5f11596358ea561c4f4fe35f78496a9350a4ce22b0",
        "values": "4c19bed744747a45d5835b55ebfa98e43cc0dd8294d70b0b693ae93364196800",
    },
    "fou-second": {
        "normals": "3475c6159921a5801474fa0de7fc8de986bb82bbd5dfcda52ffc25b1b8aebe92",
        "factors": "cb081ed9721359f9f2c0510214fc8b5fb0d9264841a20544458ad039d2bdbb87",
        "values": "df0a7950e926b59d798c38c3657781e109c2ef46e20a5c99fa03c9d691e5508c",
    },
    "fou-second-large": {
        "normals": "29a83d175962beb5a164039ac2e45d014193aeeb7f54169c4be8100aa8f83173",
        "factors": "eb0007102a6be13557213a94b9256f3f649eb0d16dfd863d6099812de8ad2973",
        "values": "c1de3a69fd3f72e6fb2a79536886931bce74f838a6712d0d885a091d32b362ab",
    },
}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_kron_v1_golden_digests(name):
    make_sampler, seed, replications, make_batch = CASES[name]
    golden = GOLDEN[name]
    sampler = make_sampler()
    states = stream_states(seed, range(replications), sampler.hurst.n)
    normals = pcg64_normals(states, sampler.window.volume)
    assert digest(normals) == golden["normals"]
    if digest(sampler._factors) != golden["factors"]:
        pytest.skip("this platform's eigh rounds the Gram factors differently "
                    "from the recorded platform; value bytes are not comparable")
    batch = make_batch()
    assert batch.config["sampler"] == "kron-v1"
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
    "fidelity": "a0f16c0b88212193b1713ad5dfa78230872138bff30920ae4e9ac044ab228212",
    "increment-stationarity": "d9f3b3185d0e931bf91d7c045f86fd6aa3518c7d9d2ab1a680e2e7744782d176",
    "moments": "53f602d5eee4e0fc4aad9af58651ad4e1e6e4b1d8c8c2505562732c599594c6e",
    "moments-large": "a83a678ea36b605140f581978e176a4d9a640a6e77dd419a1b1e721c2cdf3caa",
    "self-similarity": "0636a981ba2b765ef83c9cdb71508d9548194e1e1bccf6b1084a2b49fd0cfbf5",
    "stationarity": "c9922901f2236bd6ceeaa53809227f552b952840cc20209a1bdb2fe2650c7378",
    "stationarity-large": "3661fa7fb9539bc2652300fdae9831504eac3f651b02cc32cfa67c97f83d0dde",
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
