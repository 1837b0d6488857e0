"""Serialization battery for the compiled-artifact format.

The artifact is the shippable compile product (PR 6): these tests lock
down the byte-level container (round-trip stability, digest
determinism), the loaded model's behavioural equivalence to a fresh
compile in both fidelity tiers, backward compatibility against a golden
fixture checked into ``tests/data/``, and the failure envelope -- a
corrupted or mismatched artifact must always raise a typed
:class:`~repro.errors.ArtifactError`, never load silently wrong.
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from repro.artifact import (
    ARTIFACT_FORMAT_VERSION,
    MAGIC,
    inspect_artifact,
    load_artifact,
    save_artifact,
)
from repro.cli import main
from repro.compiler.pipeline import MultiChipModel, compile_sharded
from repro.config import arch_fingerprint, default_arch, small_test_arch
from repro.errors import ArtifactError
from repro.graph.models import get_model
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFreshCompileDigests:
    """SHA-256 of freshly compiled artifacts, recorded before the compile
    flow became one ``generate(plan_chips(...))`` call: any change to
    planning, lowering, image layout or the container moves them."""

    @pytest.mark.parametrize("argv, sha256", [
        (["tiny_mlp", "--preset", "small"],
         "80749559bf87fd1e7a48cce5a5e569748e617b5266ed0613ca34e4b9094c0b9d"),
        (["tiny_resnet", "--preset", "small", "--input-size", "8",
          "--chips", "2"],
         "655fda9899f307e3989911dc42e074ba7880955f0b7d1fb85d07cffbe671172a"),
    ])
    def test_repro_compile(self, argv, sha256, tmp_path):
        path = tmp_path / "m.artifact"
        assert main(["compile", *argv, "-o", str(path)]) == 0
        assert _sha256(path) == sha256

    def test_one_shard_pipeline_round_trips(self, tmp_path):
        """A one-shard ``compile_sharded`` product saves its (empty) cuts
        and loads back as a one-shard pipeline, not as an unsharded
        model, so save -> load -> save keeps its digest."""
        first, second = tmp_path / "a.artifact", tmp_path / "b.artifact"
        save_artifact(
            compile_sharded(get_model("tiny_mlp"), small_test_arch(), 1),
            first,
        )
        assert _sha256(first) == (
            "376468c30f0c217b7d52d85823fae0cfef79dd3a7b7f6460a9996e00433cb7aa"
        )
        loaded = load_artifact(first)
        assert isinstance(loaded, MultiChipModel)
        assert loaded.num_chips == 1 and loaded.sharding.cuts == ()
        save_artifact(loaded, second)
        assert second.read_bytes() == first.read_bytes()


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

    @staticmethod
    def _redigested(blob: bytes, edit, target: Path) -> Path:
        """``blob`` with ``edit`` applied to its manifest, re-digested so
        the manifest checks (not the digest) judge the file."""
        start = len(MAGIC) + 12
        end = start + int.from_bytes(blob[len(MAGIC) + 4:start], "little")
        manifest = json.loads(blob[start:end])
        edit(manifest)
        text = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode()
        data = (blob[:len(MAGIC) + 4] + len(text).to_bytes(8, "little")
                + text + blob[end:-32])
        target.write_bytes(data + hashlib.sha256(data).digest())
        return target

    @pytest.mark.parametrize("edit, field, inspected", [
        (lambda m: m["model"].pop("strategy"), "model.strategy", True),
        (lambda m: m["model"].pop("chips"), "model.chips", True),
        (lambda m: m["chips"][0].pop("tensor_address"),
         "chips[0].tensor_address", True),
        (lambda m: m["chips"][0].pop("fast_report"),
         "chips[0].fast_report", True),
        (lambda m: m["model"].update(chips="x"), "model.chips", True),
        (lambda m: m.update(chips="x"), "field chips", True),
        (lambda m: (m["model"].update(chips=2),
                    m["chips"].append(m["chips"][0])), "model.cuts", True),
        (lambda m: m["model"].update(cuts=[5]), "model.cuts", False),
        (lambda m: m["chips"][0]["fast_report"].pop("cycles"), "chips[0]",
         False),
        (lambda m: m["transfers"].append({}), "transfers[0].nbytes", True),
        (lambda m: m["transfers"].append(dict(
            src_chip=0, dst_chip=1, tensor="input_out", src_address=0,
            dst_address=0, nbytes=64)), "field transfers", False),
    ], ids=["no-strategy", "no-chips", "no-tensor-address",
            "no-fast-report", "chips-not-int", "records-not-list",
            "unsharded-two-chips", "cut-out-of-range",
            "fast-report-incomplete", "transfer-without-bytes",
            "transfers-disagree"])
    def test_malformed_manifest_is_typed(
        self, blob, tmp_path, edit, field, inspected
    ):
        """A digest-valid artifact whose manifest lacks a field, holds
        the wrong type or contradicts itself raises an ArtifactError
        naming the file and the field, and so does ``repro inspect``
        where it reads that field."""
        target = self._redigested(blob, edit, tmp_path / "bad.artifact")
        with pytest.raises(ArtifactError, match="bad.artifact") as error:
            load_artifact(target)
        assert field in str(error.value)
        if inspected:
            with pytest.raises(ArtifactError, match=re.escape(field)):
                inspect_artifact(target)

    def test_boundary_tensor_without_address_is_typed(
        self, two_chip, tmp_path
    ):
        path = tmp_path / "m.artifact"
        save_artifact(two_chip, path)
        tensor = two_chip.transfers[0].tensor
        target = self._redigested(
            path.read_bytes(),
            lambda m: m["chips"][1]["tensor_address"].pop(tensor),
            tmp_path / "bad.artifact",
        )
        with pytest.raises(ArtifactError, match="boundary tensor"):
            load_artifact(target)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "does_not_exist.artifact")

    def test_non_artifact_file_is_typed(self, tmp_path):
        target = tmp_path / "notes.artifact"
        target.write_text(json.dumps({"not": "an artifact"}))
        with pytest.raises(ArtifactError):
            load_artifact(target)
