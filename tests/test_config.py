"""Tests for the hierarchical hardware abstraction and parameter library."""

import hashlib
import json

import pytest

from repro.config import (
    ArchConfig,
    EnergyConfig,
    MacroConfig,
    arch_fingerprint,
    arch_from_dict,
    arch_to_dict,
    default_arch,
    load_arch,
    save_arch,
    small_test_arch,
    with_flit_bytes,
    with_mg_size,
    with_num_cores,
)
from repro.errors import ConfigError
from repro.sim.noc import NoC


class TestTable1Defaults:
    """The default preset must match the paper's Table I."""

    def test_chip_level(self):
        arch = default_arch()
        assert arch.chip.num_cores == 64
        assert arch.chip.noc.flit_bytes == 8
        assert arch.chip.global_memory.size_bytes == 16 * 1024 * 1024

    def test_core_level(self):
        arch = default_arch()
        assert arch.chip.core.cim_unit.num_macro_groups == 16
        assert arch.chip.core.cim_unit.macro_group.num_macros == 8
        assert arch.chip.core.local_memory.size_bytes == 512 * 1024

    def test_unit_level(self):
        macro = default_arch().chip.core.cim_unit.macro_group.macro
        assert (macro.rows, macro.cols) == (512, 64)
        assert (macro.element_rows, macro.element_bits) == (32, 8)

    def test_derived_tile_shape(self):
        arch = default_arch()
        assert arch.mg_tile_rows == 512
        assert arch.mg_tile_cols == 64  # 8 macros x 8 int8 columns
        assert arch.chip.core.cim_unit.capacity_bytes == 512 * 1024

    def test_validates(self):
        default_arch().validate()
        small_test_arch().validate()


class TestVariants:
    def test_with_mg_size(self):
        arch = with_mg_size(default_arch(), 4)
        assert arch.chip.core.cim_unit.macro_group.num_macros == 4
        assert arch.mg_tile_cols == 32

    def test_with_flit_bytes(self):
        arch = with_flit_bytes(default_arch(), 16)
        assert arch.chip.noc.flit_bytes == 16

    def test_with_num_cores(self):
        arch = with_num_cores(default_arch(), 16)
        assert arch.num_cores == 16

    def test_variants_do_not_mutate_base(self):
        base = default_arch()
        with_mg_size(base, 4)
        assert base.chip.core.cim_unit.macro_group.num_macros == 8


class TestValidation:
    def test_bad_macro_cols(self):
        with pytest.raises(ConfigError):
            MacroConfig(cols=60).validate()  # not a weight_bits multiple

    def test_bad_element_rows(self):
        with pytest.raises(ConfigError):
            MacroConfig(rows=100, element_rows=32).validate()

    def test_negative_energy(self):
        with pytest.raises(ConfigError):
            EnergyConfig(cim_mac_pj=-1.0).validate()

    def test_local_memory_stops_at_the_global_window(self):
        from repro.config.arch import GLOBAL_BASE, LocalMemoryConfig

        LocalMemoryConfig(size_bytes=GLOBAL_BASE).validate()
        with pytest.raises(ConfigError, match=f"{2 ** 31}.*{GLOBAL_BASE}"):
            LocalMemoryConfig(size_bytes=2 ** 31).validate()

    def test_mesh_positions(self):
        arch = default_arch()
        rows, cols = arch.chip.mesh_dims
        assert rows * cols >= 64
        assert arch.chip.core_position(0) == (0, 0)
        # (7,7) in an 8x8 mesh: the XY route is 14 links long
        assert len(NoC(arch).route(0, 63)) == 14

    def test_core_position_out_of_range(self):
        with pytest.raises(ConfigError):
            default_arch().chip.core_position(64)

    def test_size_limits_validate(self):
        from repro.config.arch import MAX_CORES, MAX_MACRO_GROUPS

        arch_from_dict(_with_leaf("chip.num_cores", MAX_CORES)).validate()
        arch_from_dict(_with_leaf(
            "chip.core.cim_unit.num_macro_groups", MAX_MACRO_GROUPS
        )).validate()

    @pytest.mark.parametrize("path, value", [
        ("chip.num_cores", 100_000),
        ("chip.num_cores", 10 ** 12),
        ("chip.core.cim_unit.num_macro_groups", 10 ** 8),
        ("chip.core.cim_unit.num_macro_groups", 10 ** 12),
    ])
    def test_hostile_size_is_one_cli_error(
        self, path, value, tmp_path, capsys
    ):
        """A core or macro-group count past the modelling limit is one
        ``error:`` line naming the field and exit 2, before anything is
        built for it."""
        import time

        from repro.cli import main

        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(_with_leaf(path, value)))
        start = time.perf_counter()
        code = main([
            "run", "tiny_mlp", "--input-size", "8", "--num-classes", "10",
            "--arch", str(arch),
        ])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"{path} must be in [1, " in err[0]
        assert f"got {value}" in err[0]


class TestSerialization:
    def test_dict_round_trip(self):
        arch = default_arch()
        assert arch_from_dict(arch_to_dict(arch)) == arch

    def test_file_round_trip(self, tmp_path):
        arch = small_test_arch()
        path = tmp_path / "arch.json"
        save_arch(arch, path)
        assert load_arch(path) == arch

    def test_unknown_key_rejected(self):
        data = arch_to_dict(default_arch())
        data["chip"]["bogus_field"] = 1
        with pytest.raises(ConfigError):
            arch_from_dict(data)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_arch(path)


def _with_leaf(path, value):
    """The default architecture's dict form with the dotted ``path`` set."""
    data = arch_to_dict(default_arch())
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        node = node[key]
    node[leaf] = value
    return data


class TestLeafTypes:
    """Every leaf of an architecture dict is checked against its field's
    annotation, and the error names the dotted path."""

    @pytest.mark.parametrize("path, value", [
        # int fields: no str, no float (even integral), no bool
        ("chip.noc.flit_bytes", "8"),
        ("chip.noc.flit_bytes", 8.5),
        ("chip.noc.flit_bytes", 8.0),
        ("chip.num_cores", True),
        ("chip.core.cim_unit.macro_group.macro.rows", None),
        ("interchip.latency_cycles", [500]),
        # float fields: numbers only, and finite
        ("energy.cim_mac_pj", "x"),
        ("energy.static_mw", float("nan")),
        ("energy.noc_pj_per_byte_per_hop", float("inf")),
        ("interchip.energy_pj_per_byte", float("-inf")),
        ("energy.scalar_op_pj", False),
        # a nested block given as a scalar
        ("chip.noc", 8),
        ("energy", None),
        ("chip.core.cim_unit.macro_group", "big"),
    ])
    def test_bad_leaf_names_its_path(self, path, value):
        with pytest.raises(ConfigError, match=rf"^{path}: expected "):
            arch_from_dict(_with_leaf(path, value))

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="^architecture: expected"):
            arch_from_dict([1, 2])

    def test_file_with_nan_energy_is_rejected(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(_with_leaf("energy.cim_mac_pj", 1.0))
                        .replace("1.0", "NaN", 1))
        with pytest.raises(ConfigError, match="energy.cim_mac_pj"):
            load_arch(path)

    def test_accepted_values_are_kept_as_given(self):
        """An int in a float field stays an int, so a file's fingerprint
        is what it was before leaves were checked."""
        data = _with_leaf("energy.static_mw", 1500)
        arch = arch_from_dict(data)
        assert type(arch.energy.static_mw) is int
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert '"static_mw":1500,' in canonical
        assert arch_fingerprint(arch) == (
            hashlib.sha256(canonical.encode()).hexdigest()
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_validate_rejects_non_finite(self, value):
        from repro.config.arch import InterChipConfig

        with pytest.raises(ConfigError, match="finite"):
            EnergyConfig(cim_mac_pj=value).validate()
        with pytest.raises(ConfigError, match="finite"):
            InterChipConfig(energy_pj_per_byte=value).validate()


class TestEnergyModel:
    def test_static_power_units(self):
        # 1000 mW at 1 GHz -> 1000 pJ per 1 ns cycle
        assert EnergyConfig(static_mw=1000.0).static_pj_per_cycle(1000) == 1000.0

    def test_mvm_timing_derivation(self):
        cim = default_arch().chip.core.cim_unit
        assert cim.mvm_issue_interval == 8  # bit-serial over 8 activation bits
        assert cim.mvm_latency == 8 + cim.mvm_setup_cycles + cim.pipeline_depth
