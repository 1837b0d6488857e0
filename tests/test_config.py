"""Tests for the hierarchical hardware abstraction and parameter library."""

import pytest

from repro.config import (
    ArchConfig,
    EnergyConfig,
    MacroConfig,
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
        assert arch.core_cim_capacity_bytes == 512 * 1024

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
        assert arch.chip.hop_distance(0, 63) == 14  # (7,7) in an 8x8 mesh

    def test_core_position_out_of_range(self):
        with pytest.raises(ConfigError):
            default_arch().chip.core_position(64)


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


class TestEnergyModel:
    def test_static_power_units(self):
        # 1000 mW at 1 GHz -> 1000 pJ per 1 ns cycle
        assert EnergyConfig(static_mw=1000.0).static_pj_per_cycle(1000) == 1000.0

    def test_mvm_timing_derivation(self):
        cim = default_arch().chip.core.cim_unit
        assert cim.mvm_issue_interval == 8  # bit-serial over 8 activation bits
        assert cim.mvm_latency == 8 + cim.mvm_setup_cycles + cim.pipeline_depth
