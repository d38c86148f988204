"""Unit tests for the API knowledge base and unit model."""

import pytest

from repro.knowledge import ApiSpec, ArgFact, SemanticType, Unit, default_knowledge


class TestDefaultKnowledge:
    def test_file_apis(self):
        kb = default_knowledge()
        assert kb.get("open").arg_fact(0).semantic is SemanticType.FILE
        assert kb.get("fopen").arg_fact(0).semantic is SemanticType.FILE

    def test_port_apis(self):
        kb = default_knowledge()
        assert kb.get("bind").arg_fact(1).semantic is SemanticType.PORT
        assert kb.get("htons").arg_fact(0).semantic is SemanticType.PORT

    def test_time_units(self):
        kb = default_knowledge()
        assert kb.get("sleep").arg_fact(0).unit is Unit.SECONDS
        assert kb.get("usleep").arg_fact(0).unit is Unit.MICROSECONDS

    def test_comparison_sensitivity(self):
        kb = default_knowledge()
        assert kb.get("strcmp").case_sensitive is True
        assert kb.get("strcasecmp").case_sensitive is False

    def test_unsafe_vs_safe_transforms(self):
        kb = default_knowledge()
        unsafe = {name for name, spec in kb.specs.items() if spec.unsafe_transform}
        assert {"atoi", "atol", "atof", "sscanf", "sprintf"} <= unsafe
        assert "strtol" not in unsafe
        assert kb.get("strtol").safe_transform

    def test_exit_apis(self):
        kb = default_knowledge()
        assert kb.get("exit").exits_process
        assert kb.get("abort").exits_process

    def test_sscanf_out_args(self):
        assert default_knowledge().get("sscanf").out_args_from == 2


class TestExtension:
    def test_extend_is_nonmutating(self):
        base = default_knowledge()
        extended = base.extend(
            [ApiSpec("wafl_reserve", args=[ArgFact(0, SemanticType.SIZE, Unit.BYTES)])]
        )
        assert "wafl_reserve" in extended
        assert base.get("wafl_reserve") is None

    def test_extend_overrides(self):
        base = default_knowledge()
        extended = base.extend([ApiSpec("atoi", unsafe_transform=False)])
        assert not extended.get("atoi").unsafe_transform
        assert base.get("atoi").unsafe_transform


class TestUnits:
    def test_dimensions(self):
        assert Unit.KILOBYTES.dimension == "size"
        assert Unit.MILLISECONDS.dimension == "time"

    def test_scale_between(self):
        # The conversion factor between two units of one dimension is
        # the ratio of their scales (what unit inference matches on).
        assert Unit.KILOBYTES.scale / Unit.BYTES.scale == 1024
        assert Unit.HOURS.scale / Unit.SECONDS.scale == 3600
        assert Unit.MICROSECONDS.scale / Unit.MILLISECONDS.scale == pytest.approx(1e-3)
