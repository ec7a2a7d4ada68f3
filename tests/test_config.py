"""Unit tests for configuration objects and validation helpers."""

import pytest

from repro.config import (DEFAULT_CONFIG, DEFAULT_SERVICE_CONFIG,
                          DEFAULT_VERIFICATION, JoinConfig, PartitionStrategy,
                          SelectionMethod, ServiceConfig, VerificationMethod,
                          validate_threshold)
from repro.exceptions import ConfigurationError, InvalidThresholdError


class TestValidateThreshold:
    def test_accepts_zero_and_positive(self):
        assert validate_threshold(0) == 0
        assert validate_threshold(7) == 7

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", None, True])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidThresholdError):
            validate_threshold(bad)


class TestJoinConfig:
    def test_defaults_are_the_papers_best_methods(self):
        """Selection and partition default to the paper's best.  The
        verifier is the one decision that departs from it: the library
        default is ``DEFAULT_VERIFICATION`` (signature reject + batched
        Myers) everywhere a default exists, and the paper's best,
        share-prefix, stays selectable."""
        assert DEFAULT_CONFIG.selection is SelectionMethod.MULTI_MATCH
        assert DEFAULT_CONFIG.partition is PartitionStrategy.EVEN
        assert DEFAULT_VERIFICATION is VerificationMethod.MYERS_BATCH
        assert DEFAULT_CONFIG.verification is DEFAULT_VERIFICATION
        assert JoinConfig.from_names().verification is DEFAULT_VERIFICATION
        assert (JoinConfig(verification="share-prefix").verification
                is VerificationMethod.SHARE_PREFIX)

    def test_string_values_are_coerced_to_enums(self):
        config = JoinConfig(selection="position", verification="banded",
                            partition="even")
        assert config.selection is SelectionMethod.POSITION
        assert config.verification is VerificationMethod.BANDED

    def test_from_names(self):
        config = JoinConfig.from_names(selection="length",
                                       verification="extension")
        assert config.selection is SelectionMethod.LENGTH
        assert config.verification is VerificationMethod.EXTENSION

    def test_from_names_unknown_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            JoinConfig.from_names(selection="does-not-exist")

    def test_invalid_enum_value_raises(self):
        with pytest.raises(ValueError):
            JoinConfig(selection="nonsense")

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.selection = SelectionMethod.LENGTH

    def test_parallel_defaults_are_serial(self):
        assert DEFAULT_CONFIG.workers == 1
        assert DEFAULT_CONFIG.chunk_size is None

    def test_workers_zero_means_all_cpus_is_accepted(self):
        assert JoinConfig(workers=0).workers == 0

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", None, True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            JoinConfig(workers=bad)

    @pytest.mark.parametrize("bad", [0, -4, 2.5, "10", True])
    def test_invalid_chunk_size_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            JoinConfig(chunk_size=bad)

    def test_from_names_forwards_parallel_knobs(self):
        config = JoinConfig.from_names(workers=4, chunk_size=128)
        assert config.workers == 4
        assert config.chunk_size == 128


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.host == "127.0.0.1"
        assert config.port == 8765
        assert config.max_tau == 2
        assert config.cache_capacity == 1024
        assert DEFAULT_SERVICE_CONFIG == config

    def test_partition_coerced_from_string(self):
        assert (ServiceConfig(partition="even").partition
                is PartitionStrategy.EVEN)

    @pytest.mark.parametrize("field,bad", [
        ("host", ""), ("host", 80),
        ("port", -1), ("port", 70000), ("port", True),
        ("max_tau", -1), ("max_tau", "2"),
        ("cache_capacity", -5), ("cache_capacity", 1.5),
        ("max_batch", 0), ("max_batch", True),
        ("batch_window", -0.1), ("batch_window", "fast"),
        ("compact_interval", -1),
        ("shards", 0), ("shards", True), ("shards", 1.5),
        ("shard_policy", "round-robin"), ("shard_policy", 3),
        ("shard_backend", "forkserver"),
        ("migration_batch", 0), ("migration_batch", -3),
        ("migration_batch", True), ("migration_batch", 2.5),
    ])
    def test_invalid_values_rejected(self, field, bad):
        with pytest.raises((ConfigurationError, InvalidThresholdError)):
            ServiceConfig(**{field: bad})

    def test_bad_shards_rejected_at_construction(self):
        # The full sharded stack must never see shards < 1: the config
        # object is the validation boundary, with a clear ConfigError.
        with pytest.raises(ConfigurationError, match="shards"):
            ServiceConfig(shards=0)
        with pytest.raises(ConfigurationError, match="shards"):
            ServiceConfig(shards=-2)

    def test_bad_migration_batch_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="migration_batch"):
            ServiceConfig(migration_batch=0)

    def test_unknown_shard_policy_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="shard_policy"):
            ServiceConfig(shard_policy="zipcode")

    def test_config_error_alias_catches_configuration_errors(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError):
            ServiceConfig(shards=0)

    def test_sharding_defaults_are_unsharded(self):
        config = ServiceConfig()
        assert config.shards == 1
        assert config.shard_policy == "hash"
        assert config.shard_backend == "auto"
        assert config.migration_batch == 256

    def test_sharding_fields_accepted(self):
        config = ServiceConfig(shards=4, shard_policy="length",
                               shard_backend="thread", migration_batch=32)
        assert (config.shards, config.shard_policy, config.shard_backend,
                config.migration_batch) == (4, "length", "thread", 32)

    def test_modulo_policy_accepted(self):
        assert ServiceConfig(shard_policy="modulo").shard_policy == "modulo"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().port = 1


class TestEnums:
    def test_selection_method_values(self):
        assert {m.value for m in SelectionMethod} == {
            "length", "shift", "position", "multi-match"}

    def test_verification_method_values(self):
        assert {m.value for m in VerificationMethod} == {
            "banded", "length-aware", "extension", "share-prefix", "myers",
            "myers-batch"}

    def test_partition_strategy_values(self):
        assert {m.value for m in PartitionStrategy} == {
            "even", "left-heavy", "right-heavy"}
