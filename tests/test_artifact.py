"""Serialization battery for the compiled-artifact format.

The artifact is the shippable compile product (PR 6): these tests lock
down the byte-level container (round-trip stability, digest
determinism), the loaded model's behavioural equivalence to a fresh
compile in both fidelity tiers, backward compatibility against a golden
fixture checked into ``tests/data/``, and the failure envelope -- a
corrupted or mismatched artifact must always raise a typed
:class:`~repro.errors.ArtifactError`, never load silently wrong.
"""

import json
import random
from pathlib import Path

import pytest

from repro.artifact import (
    ARTIFACT_FORMAT_VERSION,
    MAGIC,
    inspect_artifact,
    load_artifact,
    save_artifact,
)
from repro.config import arch_fingerprint, default_arch, small_test_arch
from repro.errors import ArtifactError
from repro.serve import Deployment
from repro import compile_model

GOLDEN = Path(__file__).parent / "data" / "tiny_mlp_small_v1.artifact"


@pytest.fixture(scope="module")
def march():
    return small_test_arch()


@pytest.fixture(scope="module")
def one_chip(march):
    return compile_model("tiny_mlp", march, "dp", input_size=8, num_classes=10)


@pytest.fixture(scope="module")
def two_chip(march):
    return compile_model(
        "tiny_resnet", march, "dp", chips=2, input_size=8, num_classes=10
    )


@pytest.fixture(params=["one_chip", "two_chip"])
def compiled(request):
    return request.getfixturevalue(request.param)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, compiled, march, tmp_path):
        first = tmp_path / "first.artifact"
        second = tmp_path / "second.artifact"
        save_artifact(compiled, first)
        loaded = load_artifact(first, arch=march)
        save_artifact(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_digest_is_stable_across_saves(self, compiled, tmp_path):
        d1 = save_artifact(compiled, tmp_path / "a.artifact")
        d2 = save_artifact(compiled, tmp_path / "b.artifact")
        assert d1 == d2
        assert (tmp_path / "a.artifact").read_bytes() == (
            tmp_path / "b.artifact"
        ).read_bytes()

    def test_digest_matches_footer_and_inspect(self, one_chip, tmp_path):
        path = tmp_path / "m.artifact"
        digest = save_artifact(one_chip, path)
        blob = path.read_bytes()
        assert blob[:len(MAGIC)] == MAGIC
        assert blob[-32:].hex() == digest
        assert inspect_artifact(path)["digest"] == digest

    def test_manifest_records_format_and_arch(self, two_chip, march, tmp_path):
        path = tmp_path / "m.artifact"
        save_artifact(two_chip, path)
        info = inspect_artifact(path)
        assert info["format_version"] == ARTIFACT_FORMAT_VERSION
        assert info["arch_fingerprint"] == arch_fingerprint(march)
        assert info["model"]["chips"] == 2
        assert info["transfers"] == len(two_chip.transfers)


class TestSimulationEquivalence:
    """Loaded artifact == fresh compile, bit for bit, in both tiers."""

    @pytest.mark.parametrize("tier", ["cyclesim", "fast"])
    def test_loaded_matches_fresh(self, compiled, march, tmp_path, tier):
        path = tmp_path / "m.artifact"
        save_artifact(compiled, path)
        fresh = Deployment(compiled, tier=tier).submit(batch=3, seed=1)
        loaded = Deployment.load(path, arch=march, tier=tier).submit(
            batch=3, seed=1
        )
        assert loaded.to_dict() == fresh.to_dict()

    def test_deployment_load_classmethod(self, one_chip, march, tmp_path):
        path = tmp_path / "m.artifact"
        save_artifact(one_chip, path)
        dep = Deployment.load(path, arch=march)
        result = dep.run(seed=0)
        assert result.validated


class TestGoldenFixture:
    """The checked-in v1 fixture must keep loading (format compat)."""

    def test_fixture_exists(self):
        assert GOLDEN.is_file(), "golden artifact fixture missing"

    def test_fixture_loads_and_inspects(self):
        info = inspect_artifact(GOLDEN)
        assert info["format_version"] == 1
        assert info["model"]["chips"] == 1
        assert info["arch_fingerprint"] == arch_fingerprint(small_test_arch())

    def test_fixture_simulates_validated(self):
        dep = Deployment.load(GOLDEN, arch=small_test_arch())
        result = dep.run(seed=0)
        assert result.validated

    def test_fixture_roundtrips_byte_identically(self, tmp_path):
        loaded = load_artifact(GOLDEN)
        resaved = tmp_path / "resaved.artifact"
        save_artifact(loaded, resaved)
        assert resaved.read_bytes() == GOLDEN.read_bytes()


class TestArchFingerprintMismatch:
    def test_mismatch_names_both_fingerprints(self, one_chip, tmp_path):
        path = tmp_path / "m.artifact"
        save_artifact(one_chip, path)
        session = default_arch()
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact(path, arch=session)
        message = str(excinfo.value)
        assert arch_fingerprint(one_chip.arch) in message
        assert arch_fingerprint(session) in message

    def test_matching_arch_is_accepted(self, one_chip, march, tmp_path):
        path = tmp_path / "m.artifact"
        save_artifact(one_chip, path)
        assert load_artifact(path, arch=march) is not None

    def test_no_arch_uses_embedded_one(self, one_chip, march, tmp_path):
        path = tmp_path / "m.artifact"
        save_artifact(one_chip, path)
        loaded = load_artifact(path)
        assert arch_fingerprint(loaded.arch) == arch_fingerprint(march)


class TestCorruptionFuzzer:
    """Seeded fuzz: any truncation or bit flip must raise ArtifactError."""

    TRIALS = 48

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        arch = small_test_arch()
        compiled = compile_model(
            "tiny_mlp", arch, "dp", input_size=8, num_classes=10
        )
        path = tmp_path_factory.mktemp("fuzz") / "m.artifact"
        save_artifact(compiled, path)
        return path.read_bytes()

    def test_fuzz_never_loads_silently(self, blob, tmp_path):
        rng = random.Random(1234)
        target = tmp_path / "corrupt.artifact"
        for trial in range(self.TRIALS):
            data = bytearray(blob)
            if trial % 2 == 0:
                # Truncate at a random point (including an empty file).
                cut = rng.randrange(0, len(data))
                data = data[:cut]
            else:
                # Flip one random bit anywhere in the container.
                pos = rng.randrange(0, len(data))
                data[pos] ^= 1 << rng.randrange(8)
            target.write_bytes(bytes(data))
            with pytest.raises(ArtifactError):
                load_artifact(target)

    def test_bad_magic_is_typed(self, blob, tmp_path):
        data = bytearray(blob)
        data[:4] = b"NOPE"
        target = tmp_path / "magic.artifact"
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="magic"):
            load_artifact(target)

    def test_unsupported_version_is_typed(self, blob, tmp_path):
        # Rewrite the version field *and* recompute the digest so the
        # version check itself (not the digest) rejects the file.
        import hashlib

        data = bytearray(blob[:-32])
        data[len(MAGIC):len(MAGIC) + 4] = (99).to_bytes(4, "little")
        data += hashlib.sha256(bytes(data)).digest()
        target = tmp_path / "version.artifact"
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(target)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "does_not_exist.artifact")

    def test_non_artifact_file_is_typed(self, tmp_path):
        target = tmp_path / "notes.artifact"
        target.write_text(json.dumps({"not": "an artifact"}))
        with pytest.raises(ArtifactError):
            load_artifact(target)
