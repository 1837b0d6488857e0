"""Serialisation and fingerprinting of architecture configurations.

The paper's workflow takes a user-supplied architecture configuration file;
this module implements that interface.  The JSON layout mirrors the
dataclass hierarchy one-to-one, so a configuration file documents itself.

:func:`arch_fingerprint` hashes the canonical JSON form, giving every
architecture point a stable content address; the design-space exploration
cache (:mod:`repro.explore_cache`) keys results by it.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Union

from repro.config.arch import (
    ArchConfig,
    ChipConfig,
    CIMUnitConfig,
    CoreConfig,
    GlobalMemoryConfig,
    InterChipConfig,
    LocalMemoryConfig,
    MacroConfig,
    MacroGroupConfig,
    NoCConfig,
    RegisterFileConfig,
    ScalarUnitConfig,
    VectorUnitConfig,
)
from repro.config.energy import EnergyConfig
from repro.errors import ConfigError


def arch_to_dict(arch: ArchConfig) -> Dict[str, Any]:
    """Convert an :class:`ArchConfig` into a plain, JSON-safe dictionary."""
    return dataclasses.asdict(arch)


def arch_canonical_json(arch: ArchConfig) -> str:
    """Canonical (sorted-key, compact) JSON form of an architecture.

    Two :class:`ArchConfig` instances describe the same hardware point iff
    their canonical JSON strings are equal.
    """
    return json.dumps(
        arch_to_dict(arch), sort_keys=True, separators=(",", ":")
    )


def arch_fingerprint(arch: ArchConfig) -> str:
    """Content address of an architecture point (hex SHA-256).

    Stable across processes and sessions, so it can key on-disk sweep
    caches and name generated artifacts.
    """
    return hashlib.sha256(arch_canonical_json(arch).encode()).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return _is_int(value) or (
        isinstance(value, float) and math.isfinite(value)
    )


#: What a leaf of each annotated type accepts, and how the error says so.
#: Accepted values are kept as given (an int stays an int in a float
#: field), so an architecture's fingerprint does not depend on the check.
_LEAF_RULES = {
    int: (_is_int, "an integer"),
    float: (_is_finite_number, "a finite number"),
}


def _build(cls, data: Any, nested: Dict[str, Any], path: str):
    """Construct dataclass ``cls`` from ``data``, recursing into ``nested``
    (a map of field name -> dataclass type).  Unknown keys are rejected so
    typos in config files fail loudly, and every leaf is type-checked
    against its field's annotation; errors name the dotted ``path``."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path or 'architecture'}: expected an object "
            f"({cls.__name__}), got {data!r}"
        )
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(
            f"unknown keys for {cls.__name__}: {sorted(unknown)}"
        )
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key in nested:
            kwargs[key] = _build(
                nested[key], value, _NESTED.get(nested[key], {}), where
            )
            continue
        rule = _LEAF_RULES.get(fields[key].type)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{where}: expected {rule[1]}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


_NESTED = {
    ArchConfig: {
        "chip": ChipConfig,
        "energy": EnergyConfig,
        "interchip": InterChipConfig,
    },
    ChipConfig: {
        "core": CoreConfig,
        "noc": NoCConfig,
        "global_memory": GlobalMemoryConfig,
    },
    CoreConfig: {
        "cim_unit": CIMUnitConfig,
        "vector_unit": VectorUnitConfig,
        "scalar_unit": ScalarUnitConfig,
        "local_memory": LocalMemoryConfig,
        "register_file": RegisterFileConfig,
    },
    CIMUnitConfig: {"macro_group": MacroGroupConfig},
    MacroGroupConfig: {"macro": MacroConfig},
}


def arch_component_from_dict(cls, data: Dict[str, Any]):
    """Build any component dataclass from its dictionary form."""
    return _build(cls, data, _NESTED.get(cls, {}), "")


def arch_from_dict(data: Dict[str, Any]) -> ArchConfig:
    """Reconstruct an :class:`ArchConfig` from :func:`arch_to_dict` output."""
    arch = arch_component_from_dict(ArchConfig, data)
    arch.validate()
    return arch


def save_arch(arch: ArchConfig, path: Union[str, Path]) -> None:
    """Write an architecture configuration file (JSON)."""
    Path(path).write_text(json.dumps(arch_to_dict(arch), indent=2))


def load_arch(path: Union[str, Path]) -> ArchConfig:
    """Read and validate an architecture configuration file (JSON)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed architecture file {path}: {exc}") from exc
    return arch_from_dict(data)
