"""Content-addressed on-disk artifacts for compiled models.

The compiler's products (:class:`~repro.compiler.pipeline.CompiledModel`
and :class:`~repro.compiler.pipeline.MultiChipModel`) live in process
memory; this module makes them a shippable file, so a serving session
never re-runs the compiler::

    from repro import compile_model, save_artifact, load_artifact

    digest = save_artifact(compile_model("tiny_resnet", chips=2), "m.artifact")
    model = load_artifact("m.artifact")          # bit-identical product

**Container layout** (all integers little-endian)::

    offset 0   : 8-byte magic  b"RPROART\\0"
    offset 8   : u32 artifact format version
    offset 12  : u64 manifest length, then the manifest (canonical JSON)
    ...        : binary sections, back to back, in manifest order
    tail       : 32-byte SHA-256 digest over every preceding byte

The manifest is canonical JSON (sorted keys, compact separators) naming
the format version, the architecture fingerprint
(:func:`repro.config.arch_fingerprint`), model/chips/strategy metadata,
per-chip tensor addresses + fast-model reports, the inter-chip transfer
schedule, ISA extension descriptors, and the section index.  Sections
hold the architecture JSON, the full model graph (with weights), and per
chip the encoded programs and the global-memory weight image.

The trailing digest is the artifact's *content address*:
:func:`save_artifact` returns it, ``repro inspect`` prints it, and
:func:`load_artifact` refuses any file whose bytes do not hash to it --
corruption (truncation, bit flips) always raises a typed
:class:`~repro.errors.ArtifactError`, never a silently-wrong model.
Serialization is deterministic: saving the same compiled model twice
produces byte-identical files, and ``save -> load -> save`` round-trips
to the same bytes (the golden-fixture and round-trip tests in
``tests/test_artifact.py`` pin this).

**Programs** are stored as their 32-bit instruction encodings
(:func:`repro.isa.encode`).  The rare instruction whose ``li``-expanded
immediate exceeds its field's encodable range (irrelevant to
simulation, which reads the resolved fields) is stored as a JSON field
override instead, so every program -- encodable or not -- round-trips to
the exact canonical instruction stream.

**Loading** rebuilds a real product: the graph is reconstructed from its
serialized form, multi-chip shards are re-derived with the *stored* cut
points (``shard_graph`` is deterministic given cuts), and each chip gets
a lightweight :class:`ArtifactPlan` carrying exactly the plan state the
simulators and the serving layer consume (tensor addresses, condensed-
graph aliases, the pre-computed fast-model report).  Cycle-level and
fast-tier results from a loaded artifact are bit-identical to a fresh
in-process compile -- ``tests/test_artifact.py`` enforces this on 1- and
2-chip models in both tiers.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.compiler.frontend import CondensedGraph, condense
from repro.compiler.partition import shard_graph
from repro.compiler.pipeline import (
    CompiledModel,
    InterChipTransfer,
    MultiChipModel,
)
from repro.config import (
    ArchConfig,
    arch_canonical_json,
    arch_fingerprint,
    arch_from_dict,
)
from repro.errors import ArtifactError, ISAError
from repro.graph.graph import ComputationGraph
from repro.graph.onnx_like import graph_from_dict, graph_to_dict
from repro.isa import (
    Category,
    Format,
    ISARegistry,
    Instruction,
    InstructionDescriptor,
    Program,
    decode,
    default_registry,
    encode,
)
from repro.sim.fastmodel import FastReport, analyze_plan

#: Bump on any change to the container layout or manifest schema.
ARTIFACT_FORMAT_VERSION = 1

MAGIC = b"RPROART\0"
_DIGEST_BYTES = 32


def _canonical_json_bytes(payload) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# The loaded plan stub
# ---------------------------------------------------------------------------

@dataclass
class ArtifactPlan:
    """The plan state an artifact preserves (a lean ``ExecutionPlan``).

    A full :class:`~repro.compiler.plan.ExecutionPlan` carries the whole
    CG-level optimization state (geometries, stage mappings, replica
    assignments); the simulators and the serving layer only ever consume
    the fields below, so the artifact stores exactly these.  The
    ``fast_report`` is the plan's :func:`~repro.sim.fastmodel.analyze_plan`
    result computed at save time -- ``analyze_plan`` returns it instead
    of re-analysing, which keeps fast-tier results from a loaded artifact
    bit-identical to a fresh compile.
    """

    graph: ComputationGraph
    cgraph: CondensedGraph
    arch: ArchConfig
    strategy: str
    tensor_address: Dict[str, int] = field(default_factory=dict)
    fast_report: Optional[FastReport] = None

    def summary(self) -> str:
        return (
            f"plan[{self.strategy}] {self.graph.name}: loaded from artifact, "
            f"{len(self.tensor_address)} global tensors"
        )


# ---------------------------------------------------------------------------
# Program (de)serialization
# ---------------------------------------------------------------------------

def _program_to_entry(program: Program) -> Dict:
    """One core's program as encoded words plus field overrides.

    A word is used only when ``decode(encode(instr))`` reproduces the
    instruction's canonical (non-zero) fields; anything else -- e.g. a
    ``li``-expanded immediate outside its field's encodable range --
    becomes a JSON override, so the stored form always round-trips to
    the exact instruction stream the compiler emitted.
    """
    if not program.finalized:
        program.finalize()
    words: List[int] = []
    overrides: Dict[str, Dict] = {}
    for index, instr in enumerate(program.instructions):
        canonical = {k: int(v) for k, v in instr.fields.items() if v != 0}
        try:
            word = encode(instr, program.registry)
            decoded = decode(word, program.registry)
            if decoded.mnemonic == instr.mnemonic and decoded.fields == canonical:
                words.append(word)
                continue
        except ISAError:
            pass
        words.append(0)
        overrides[str(index)] = {
            "mnemonic": instr.mnemonic,
            "fields": canonical,
        }
    return {"words": words, "overrides": overrides}


def _program_from_entry(entry: Dict, registry: ISARegistry) -> Program:
    program = Program(registry)
    overrides = entry.get("overrides", {})
    for index, word in enumerate(entry["words"]):
        override = overrides.get(str(index))
        if override is not None:
            instr = Instruction(
                override["mnemonic"],
                {k: int(v) for k, v in override["fields"].items()},
            )
            program.append(instr)
        else:
            program.append(decode(int(word), registry))
    return program.finalize()


def _descriptor_to_dict(desc: InstructionDescriptor) -> Dict:
    return {
        "mnemonic": desc.mnemonic,
        "opcode": int(desc.opcode),
        "category": desc.category.value,
        "fmt": desc.fmt.value,
        "operands": list(desc.operands),
        "description": desc.description,
        "latency": desc.latency,
        "energy_pj": desc.energy_pj,
        "unsigned_fields": list(desc.unsigned_fields),
    }


def _descriptor_from_dict(data: Dict) -> InstructionDescriptor:
    return InstructionDescriptor(
        mnemonic=data["mnemonic"],
        opcode=int(data["opcode"]),
        category=Category(data["category"]),
        fmt=Format(data["fmt"]),
        operands=tuple(data.get("operands", ())),
        description=data.get("description", ""),
        latency=data.get("latency"),
        energy_pj=data.get("energy_pj"),
        unsigned_fields=tuple(data.get("unsigned_fields", ())),
    )


def _extension_descriptors(registry: ISARegistry) -> List[Dict]:
    """Descriptors registered beyond the built-in instruction table."""
    builtin = default_registry()
    return [
        _descriptor_to_dict(registry.lookup(m))
        for m in registry.mnemonics()
        if m not in builtin
    ]


def _registry_from_manifest(manifest: Dict) -> ISARegistry:
    extensions = manifest.get("isa_extensions", [])
    if not extensions:
        return default_registry()
    registry = ISARegistry()
    for entry in extensions:
        try:
            registry.register(_descriptor_from_dict(entry))
        except (ISAError, KeyError, ValueError) as exc:
            raise ArtifactError(
                f"invalid ISA extension descriptor in manifest: {exc}"
            ) from exc
    return registry


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------

def _chip_manifest_and_sections(
    index: int, compiled: CompiledModel
) -> Tuple[Dict, List[Tuple[str, bytes]]]:
    cores = {
        str(cid): _program_to_entry(program)
        for cid, program in sorted(compiled.programs.items())
    }
    program_bytes = _canonical_json_bytes({"cores": cores})
    image_bytes = bytes(
        np.ascontiguousarray(compiled.global_image, dtype=np.uint8)
    )
    meta = {
        "tensor_address": {
            name: int(addr)
            for name, addr in sorted(compiled.plan.tensor_address.items())
        },
        "fast_report": analyze_plan(compiled.plan).to_dict(),
        "num_instructions": int(compiled.total_instructions()),
        "image_bytes": len(image_bytes),
    }
    sections = [
        (f"program.{index}", program_bytes),
        (f"image.{index}", image_bytes),
    ]
    return meta, sections


def save_artifact(
    model: Union[CompiledModel, MultiChipModel],
    path: Union[str, Path],
) -> str:
    """Serialize a compiled model to ``path``; returns its hex digest.

    Deterministic: the same compiled model always produces byte-identical
    files, so the returned SHA-256 digest is a stable content address.
    """
    if isinstance(model, MultiChipModel):
        chips = model.chips
        strategy = chips[0].plan.strategy
        cuts = [int(c) for c in model.sharding.cuts]
        transfers = [
            {
                "src_chip": t.src_chip,
                "dst_chip": t.dst_chip,
                "tensor": t.tensor,
                "src_address": t.src_address,
                "dst_address": t.dst_address,
                "nbytes": t.nbytes,
            }
            for t in model.transfers
        ]
        registry = chips[0].registry
    elif isinstance(model, CompiledModel):
        chips = [model]
        strategy = model.plan.strategy
        cuts = None
        transfers = []
        registry = model.registry
    else:
        raise ArtifactError(
            f"save_artifact needs a CompiledModel or MultiChipModel, got "
            f"{type(model).__name__}"
        )

    graph = model.graph
    arch_bytes = arch_canonical_json(model.arch).encode("utf-8")
    graph_bytes = _canonical_json_bytes(graph_to_dict(graph))

    sections: List[Tuple[str, bytes]] = [
        ("arch", arch_bytes),
        ("graph", graph_bytes),
    ]
    chip_meta = []
    for index, compiled in enumerate(chips):
        meta, chip_sections = _chip_manifest_and_sections(index, compiled)
        chip_meta.append(meta)
        sections.extend(chip_sections)

    input_names = [op.output for op in graph.input_operators]
    manifest = {
        "format": "repro-artifact",
        "format_version": ARTIFACT_FORMAT_VERSION,
        "arch_fingerprint": arch_fingerprint(model.arch),
        "model": {
            "name": graph.name,
            "chips": len(chips),
            "strategy": strategy,
            "cuts": cuts,
            "inputs": input_names,
            "outputs": list(graph.outputs),
        },
        "chips": chip_meta,
        "transfers": transfers,
        "isa_extensions": _extension_descriptors(registry),
        "sections": [
            {"name": name, "nbytes": len(data)} for name, data in sections
        ],
    }
    manifest_bytes = _canonical_json_bytes(manifest)

    blob = bytearray()
    blob += MAGIC
    blob += ARTIFACT_FORMAT_VERSION.to_bytes(4, "little")
    blob += len(manifest_bytes).to_bytes(8, "little")
    blob += manifest_bytes
    for _, data in sections:
        blob += data
    digest = hashlib.sha256(bytes(blob)).hexdigest()
    blob += bytes.fromhex(digest)
    Path(path).write_bytes(bytes(blob))
    return digest


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def _read_verified(path: Union[str, Path]) -> Tuple[Dict, Dict[str, bytes], str]:
    """Parse + digest-check an artifact; returns (manifest, sections, digest).

    Every integrity failure raises :class:`ArtifactError`: a wrong magic
    (not an artifact at all), a digest mismatch (truncation or bit
    corruption anywhere in the file), an unsupported format version, or
    a malformed manifest/section table.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    header_len = len(MAGIC) + 4 + 8
    if len(raw) < header_len + _DIGEST_BYTES:
        raise ArtifactError(
            f"{path}: too short to be an artifact ({len(raw)} bytes)"
        )
    if raw[: len(MAGIC)] != MAGIC:
        raise ArtifactError(f"{path}: not a repro artifact (bad magic)")
    body, stored = raw[:-_DIGEST_BYTES], raw[-_DIGEST_BYTES:]
    actual = hashlib.sha256(body).digest()
    if actual != stored:
        raise ArtifactError(
            f"{path}: content digest mismatch (stored {stored.hex()}, "
            f"actual {actual.hex()}); the file is corrupt or truncated"
        )
    version = int.from_bytes(raw[len(MAGIC): len(MAGIC) + 4], "little")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported artifact format version {version} "
            f"(this build reads version {ARTIFACT_FORMAT_VERSION})"
        )
    manifest_len = int.from_bytes(raw[len(MAGIC) + 4: header_len], "little")
    manifest_end = header_len + manifest_len
    if manifest_end > len(body):
        raise ArtifactError(f"{path}: manifest overruns the file")
    try:
        manifest = json.loads(body[header_len:manifest_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: malformed manifest: {exc}") from exc

    sections: Dict[str, bytes] = {}
    cursor = manifest_end
    try:
        table = manifest["sections"]
        for entry in table:
            name, nbytes = entry["name"], int(entry["nbytes"])
            sections[name] = body[cursor:cursor + nbytes]
            if len(sections[name]) != nbytes:
                raise ArtifactError(
                    f"{path}: section {name!r} overruns the file"
                )
            cursor += nbytes
    except (KeyError, TypeError) as exc:
        raise ArtifactError(f"{path}: malformed section table: {exc}") from exc
    if cursor != len(body):
        raise ArtifactError(
            f"{path}: {len(body) - cursor} trailing bytes after the last "
            f"section"
        )
    return manifest, sections, actual.hex()


def _load_chip(
    meta: Dict,
    program_bytes: bytes,
    image_bytes: bytes,
    graph: ComputationGraph,
    cgraph: CondensedGraph,
    arch: ArchConfig,
    strategy: str,
    registry: ISARegistry,
) -> CompiledModel:
    try:
        cores_entry = json.loads(program_bytes.decode("utf-8"))["cores"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        raise ArtifactError(f"malformed program section: {exc}") from exc
    try:
        programs = {
            int(cid): _program_from_entry(entry, registry)
            for cid, entry in cores_entry.items()
        }
    except ISAError as exc:
        raise ArtifactError(f"cannot decode program: {exc}") from exc
    plan = ArtifactPlan(
        graph=graph,
        cgraph=cgraph,
        arch=arch,
        strategy=strategy,
        tensor_address={
            name: int(addr) for name, addr in meta["tensor_address"].items()
        },
        fast_report=FastReport.from_dict(meta["fast_report"]),
    )
    image = np.frombuffer(image_bytes, dtype=np.uint8).copy()
    return CompiledModel(
        plan=plan, programs=programs, global_image=image, registry=registry
    )


def load_artifact(
    path: Union[str, Path],
    arch: Optional[ArchConfig] = None,
) -> Union[CompiledModel, MultiChipModel]:
    """Load a compiled model from an artifact file.

    Verifies the content digest, format version and manifest before
    touching any payload.  When ``arch`` is given (the session's
    :class:`ArchConfig`), its fingerprint must match the fingerprint the
    artifact was compiled for -- a mismatch raises
    :class:`ArtifactError` naming both fingerprints instead of producing
    undefined simulation results on the wrong hardware point.
    """
    manifest, sections, _ = _read_verified(path)
    try:
        stored_fp = manifest["arch_fingerprint"]
        model_meta = manifest["model"]
        chip_meta = manifest["chips"]
    except KeyError as exc:
        raise ArtifactError(f"{path}: manifest missing {exc}") from exc

    if arch is not None:
        session_fp = arch_fingerprint(arch)
        if session_fp != stored_fp:
            raise ArtifactError(
                f"{path}: architecture mismatch -- the artifact was "
                f"compiled for arch fingerprint {stored_fp} but the "
                f"session arch has fingerprint {session_fp}; recompile "
                f"for this architecture or load with the matching one"
            )

    try:
        loaded_arch = arch_from_dict(
            json.loads(sections["arch"].decode("utf-8"))
        )
        graph = graph_from_dict(json.loads(sections["graph"].decode("utf-8")))
    except ArtifactError:
        raise
    except Exception as exc:
        raise ArtifactError(
            f"{path}: cannot rebuild arch/graph payload: {exc}"
        ) from exc
    if arch_fingerprint(loaded_arch) != stored_fp:
        raise ArtifactError(
            f"{path}: manifest arch fingerprint {stored_fp} does not match "
            f"the embedded architecture ({arch_fingerprint(loaded_arch)})"
        )

    registry = _registry_from_manifest(manifest)
    strategy = model_meta["strategy"]
    num_chips = int(model_meta["chips"])
    if len(chip_meta) != num_chips:
        raise ArtifactError(
            f"{path}: manifest lists {num_chips} chips but has "
            f"{len(chip_meta)} chip records"
        )

    def chip_sections(index: int) -> Tuple[bytes, bytes]:
        try:
            return sections[f"program.{index}"], sections[f"image.{index}"]
        except KeyError as exc:
            raise ArtifactError(
                f"{path}: missing section for chip {index}: {exc}"
            ) from exc

    if num_chips == 1:
        program_bytes, image_bytes = chip_sections(0)
        return _load_chip(
            chip_meta[0], program_bytes, image_bytes,
            graph, condense(graph), loaded_arch, strategy, registry,
        )

    cuts = tuple(int(c) for c in model_meta["cuts"])
    sharding = shard_graph(graph, num_chips, cuts=cuts)
    chips: List[CompiledModel] = []
    for index, (shard, meta) in enumerate(zip(sharding.shards, chip_meta)):
        program_bytes, image_bytes = chip_sections(index)
        chips.append(
            _load_chip(
                meta, program_bytes, image_bytes,
                shard.graph, condense(shard.graph), loaded_arch, strategy,
                registry,
            )
        )
    transfers = [
        InterChipTransfer(
            src_chip=int(t["src_chip"]),
            dst_chip=int(t["dst_chip"]),
            tensor=t["tensor"],
            src_address=int(t["src_address"]),
            dst_address=int(t["dst_address"]),
            nbytes=int(t["nbytes"]),
        )
        for t in manifest.get("transfers", [])
    ]
    return MultiChipModel(
        sharding=sharding, arch=loaded_arch, chips=chips, transfers=transfers
    )


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------

def inspect_artifact(path: Union[str, Path]) -> Dict:
    """Digest-verify an artifact and summarise its manifest (JSON-safe).

    The summary powers ``repro inspect``: content digest, format
    version, arch fingerprint, model/chips/strategy metadata, per-chip
    instruction and image sizes, and the transfer schedule.
    """
    manifest, sections, digest = _read_verified(path)
    model_meta = manifest.get("model", {})
    return {
        "path": str(path),
        "digest": digest,
        "file_bytes": Path(path).stat().st_size,
        "format_version": manifest.get("format_version"),
        "arch_fingerprint": manifest.get("arch_fingerprint"),
        "model": model_meta,
        "chips": [
            {
                "num_instructions": meta.get("num_instructions"),
                "image_bytes": meta.get("image_bytes"),
                "global_tensors": len(meta.get("tensor_address", {})),
                "fast_cycles": meta.get("fast_report", {}).get("cycles"),
            }
            for meta in manifest.get("chips", [])
        ],
        "transfers": len(manifest.get("transfers", [])),
        "interchip_bytes": sum(
            int(t["nbytes"]) for t in manifest.get("transfers", [])
        ),
        "isa_extensions": [
            e["mnemonic"] for e in manifest.get("isa_extensions", [])
        ],
        "sections": [
            {"name": s["name"], "nbytes": s["nbytes"]}
            for s in manifest.get("sections", [])
        ],
    }
