"""System and enclave configuration validation."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.core.system import HyperTEESystem
from repro.errors import ConfigurationError


def test_default_system_config_valid():
    config = SystemConfig()
    assert config.ems_core == "medium"
    assert config.crypto == "engine"


def test_invalid_memory():
    with pytest.raises(ConfigurationError):
        SystemConfig(cs_memory_mb=1)
    with pytest.raises(ConfigurationError):
        SystemConfig(ems_memory_mb=0)


@pytest.mark.parametrize("config, smallest", [
    ({"cs_memory_mb": 4}, 5),
    ({"cs_memory_mb": 16, "ems_shards": 4}, 17),
    ({"ems_shards": 16}, 65),
])
def test_memory_must_hold_every_shards_pool(config: dict, smallest: int):
    """Each shard's pool takes its initial frames from CS memory at boot,
    after the firmware frames and the bitmap. A config that cannot hold
    them is rejected, naming the smallest ``cs_memory_mb`` that boots,
    and that size does boot."""
    with pytest.raises(ConfigurationError,
                       match=f"smallest cs_memory_mb that boots is {smallest}$"):
        SystemConfig(**config)
    HyperTEESystem(SystemConfig(**{**config, "cs_memory_mb": smallest}))


def test_negative_pool_pages_rejected():
    with pytest.raises(ConfigurationError):
        SystemConfig(pool_initial_pages=-1)


def test_invalid_cores():
    with pytest.raises(ConfigurationError):
        SystemConfig(cs_cores=0)
    with pytest.raises(ConfigurationError):
        SystemConfig(ems_cores=0)


def test_invalid_ems_core_name():
    with pytest.raises(ConfigurationError):
        SystemConfig(ems_core="mega")


def test_invalid_crypto():
    with pytest.raises(ConfigurationError):
        SystemConfig(crypto="quantum")


def test_enclave_config_defaults():
    config = EnclaveConfig()
    assert config.static_pages == config.code_pages + config.stack_pages


def test_enclave_config_validation():
    with pytest.raises(ConfigurationError):
        EnclaveConfig(code_pages=0)
    with pytest.raises(ConfigurationError):
        EnclaveConfig(stack_pages=0)
    with pytest.raises(ConfigurationError):
        EnclaveConfig(heap_pages_max=-1)
