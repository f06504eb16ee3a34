"""Golden transcripts: one SHA-256 per batchable query, pinned.

Every kind of :data:`repro.core.batch.KINDS` runs with and without
verification (where the kind has a verification stream), over all
owners and over a two-owner subset, on a seeded local deployment swept
in 1 and in 3 spans.  Each case's digest covers every payload the
transport carries (sender, receiver, kind label and the wire encoding),
the per-kind message counts, the total bytes and the canonical result.
The digest does not depend on the span count: sharding is bit-identical
by the span contract.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from reference import canonical

from repro import Domain, PrismSystem, Q, Relation
from repro.core.batch import KINDS
from repro.network.codec import encode
from repro.network.transport import LocalTransport


class RecordingTransport(LocalTransport):
    """A local transport that keeps every transfer it carries."""

    def __init__(self):
        super().__init__()
        self.transcript: list[tuple] = []

    def transfer(self, sender, receiver, kind, payload):
        self.transcript.append((str(sender), str(receiver), kind,
                                encode(payload)))
        return super().transfer(sender, receiver, kind, payload)


def _system(num_shards: int) -> PrismSystem:
    rng = np.random.default_rng(26)
    domain = Domain.integer_range("k", 48, start=0)
    relations = [
        Relation(f"o{i}", {
            "k": rng.integers(0, 48, size=30).tolist(),
            "x": rng.integers(0, 1000, size=30).tolist(),
            "y": rng.integers(0, 50, size=30).tolist(),
        })
        for i in range(3)
    ]
    return PrismSystem.build(relations, domain, "k", agg_attributes=("x", "y"),
                             with_verification=True, seed=26,
                             num_shards=num_shards)


def _query(kind: str, verify: bool, owners) -> Q:
    over, _, op = kind.partition("_")
    query = Q.psi("k") if over == "psi" else Q.psu("k")
    if op == "count":
        query = query.count()
    elif op == "sum":
        query = query.sum("x", "y")
    elif op == "average":
        query = query.avg("x")
    if owners is not None:
        query = query.owners(owners)
    return query.verify(verify)


def _cases():
    for kind in KINDS:
        for verify in ((False,) if kind == "psu_count" else (False, True)):
            for owners in (None, (0, 2)):
                yield (f"{kind}-{'verify' if verify else 'plain'}-"
                       f"{'all' if owners is None else 'pair'}",
                       kind, verify, owners)


def _digest(kind: str, verify: bool, owners, num_shards: int) -> str:
    system = _system(num_shards)
    try:
        transport = system.transport = RecordingTransport()
        result = system.executor.execute(_query(kind, verify, owners))
        digest = hashlib.sha256()
        for sender, receiver, label, blob in transport.transcript:
            digest.update(f"{sender}>{receiver}:{label}:{len(blob)}:"
                          .encode())
            digest.update(blob)
        stats = transport.stats
        digest.update(repr(sorted(stats.messages_by_kind.items())).encode())
        digest.update(repr(stats.total_bytes).encode())
        digest.update(repr(canonical(result)).encode())
        return digest.hexdigest()
    finally:
        system.close()


CASES = list(_cases())

#: SHA-256 of each case's transcript, message counts, bytes and result.
_GOLDEN = {
    "psi-plain-all":
        "f837f06ea2c51cd872d164cb70fbfc37d6c3dfe6327290cbb814f93877862f02",
    "psi-plain-pair":
        "9715437042c75801fd5f8b22be5cb525e86112d2a4d1d5d4e1dcdd02126a65df",
    "psi-verify-all":
        "7df22ed58ef19533c4cbc3915be43e180edab167420821d2d4a8ed0a41a36cfe",
    "psi-verify-pair":
        "534f6d9e1b67e910c9553dd0a1d748ca520d23d7456ea603fc91884bdea41596",
    "psu-plain-all":
        "3ce3141c64329fb18d44b76f65d464b9b618dbefd5b51917cfd44b16fef6a674",
    "psu-plain-pair":
        "f96d3931a7ed2f0ac0f999aff3109962eb4495b9430640d8cf6847de46dde019",
    "psu-verify-all":
        "03a7aa2bcb6573d5bf1bdcfb3ac835da5924dde96773ffc90af79dacbddc8499",
    "psu-verify-pair":
        "a21be4ac0242f7389927a383ab715530b5fdfa9e4f1eef954067700b14e89d3a",
    "psi_count-plain-all":
        "9678b7a73b5bae8835fe21b5d79c9cb5cfdccaa2b355d92beb7ed4b63faaeda1",
    "psi_count-plain-pair":
        "4a7061140d7c8a0dd7c84a3647619b6f5fb1e498f3cc33e6bd5d082e409910ee",
    "psi_count-verify-all":
        "5f97bdeccda79ab22a807f2bceeaf1e7e56c2ffea52318845fc0ea12ceded439",
    "psi_count-verify-pair":
        "4759a46a756bc0fd7615f49e68814f341d5f4776a39b968da73d664bb052fdac",
    "psu_count-plain-all":
        "2f8bc392cb78a1402871ae78e0addb33e408dae7730c628af18146eff1f62911",
    "psu_count-plain-pair":
        "7c4a7c824f3d1c42a02983f693e4b6d5d3f9a1cc43d31e1e3a2d01a4edb5644d",
    "psi_sum-plain-all":
        "43b224d5638313e1ba8f38a37e463ced76a50a38c99c959c00b2fe1dcb8e93ca",
    "psi_sum-plain-pair":
        "b0a2b157523fa71577e9e02be734fa2752f83c55e4b2f2ebbb79b776f4e66afd",
    "psi_sum-verify-all":
        "f1e923fa16dfb323f11ddd9c44cdaec758c75de2990992a0dc23e2db21a3cd0c",
    "psi_sum-verify-pair":
        "86d010fb961780ad6bb6494064a3a0e71b63cb06fd91133d81f4ebdf7cb3dd0d",
    "psi_average-plain-all":
        "fd388451d181b32453431c2e2b7aeb8f5a5b7efb00b8f7cee9ac4f71675961ca",
    "psi_average-plain-pair":
        "bbaffe80f50df8453b421095694992718d46c04892c8eea0b6702b4436e46b91",
    "psi_average-verify-all":
        "d709d498d268e565cc476fb118c64e23c7d33ed0a3b1fe53065e020ddfbd83cc",
    "psi_average-verify-pair":
        "65e94adf6ce489a58b5f5a225c3329d85673dd30563d8261b77fec4ced7b4b8e",
    "psu_sum-plain-all":
        "7b61cc2565bd3e4e4bda6bd219ff2a0f41577cef90158d95f9edc12a2a2b28b1",
    "psu_sum-plain-pair":
        "9b4e07edc6ca92b74204c0c7a673e6ab70df191c1b877275dd84108ac76a81ee",
    "psu_sum-verify-all":
        "ed2e6d2e62be04b30e0308ea9f5256b219bc77ea4ad5d7b0af00d1cde97aace7",
    "psu_sum-verify-pair":
        "2d89c0c7c65efa3ded8418f4cb0d7fceb6770dd72220210d895be3b947c4ac91",
    "psu_average-plain-all":
        "7e1d1c01e362d7aa1238f204ef5d5630601a9d3e2c42b5348cbc7a6d0e906adb",
    "psu_average-plain-pair":
        "c4cc70608b315464bea75382ff14602d8acfda963db1f59ee0fb8d55a277a25f",
    "psu_average-verify-all":
        "4195301b9c63cc714e9a8f63aa481f82a40a0208f6e1071fa1f1ea4f0e0ff719",
    "psu_average-verify-pair":
        "16492377753e3cd1501aeac6e2e45be857ae108357168a870b6fd97c52908c33",
}


@pytest.mark.parametrize("num_shards", [1, 3])
@pytest.mark.parametrize("name,kind,verify,owners", CASES,
                         ids=[case[0] for case in CASES])
def test_transcript_matches_golden_digest(name, kind, verify, owners,
                                          num_shards):
    assert _digest(kind, verify, owners, num_shards) == _GOLDEN[name]


def test_every_kind_is_pinned():
    assert {kind for _, kind, _, _ in CASES} == set(KINDS)
    assert set(_GOLDEN) == {name for name, *_ in CASES}
