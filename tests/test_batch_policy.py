"""Batch-policy resolution, ambient selection, and lane plumbing."""

import pytest

from repro.batching import (
    BATCH_ENV,
    BATCH_POLICIES,
    OFF,
    ON,
    active_batching,
    current_lane,
    lane_scope,
    resolve_batching,
    suspend_lane,
    use_batching,
)
from repro.errors import ConfigurationError


class TestResolution:
    def test_known_policies(self):
        assert set(BATCH_POLICIES) == {"off", "on"}
        assert resolve_batching("off") is OFF
        assert resolve_batching("on") is ON
        assert not OFF.enabled and ON.enabled

    @pytest.mark.parametrize("alias", ["", "0", "no", "none", "false"])
    def test_off_aliases(self, alias):
        assert resolve_batching(alias) is OFF

    @pytest.mark.parametrize("alias", ["1", "yes", "true", "batch", "batched"])
    def test_on_aliases(self, alias):
        assert resolve_batching(alias) is ON

    def test_none_and_instance_passthrough(self):
        assert resolve_batching(None) is OFF
        assert resolve_batching(ON) is ON

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_batching("sideways")
        assert BATCH_ENV in str(excinfo.value)


class TestAmbient:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(BATCH_ENV, raising=False)
        assert active_batching() is OFF

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "on")
        assert active_batching() is ON

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_ENV, "on")
        with use_batching(OFF):
            assert active_batching() is OFF
        assert active_batching() is ON

    def test_override_restores(self):
        with use_batching(ON):
            assert active_batching() is ON
        assert active_batching() is OFF


class TestLanePlumbing:
    def test_no_lane_by_default(self):
        assert current_lane() is None

    def test_lane_scope_installs_and_restores(self):
        sentinel = object()
        with lane_scope(sentinel):
            assert current_lane() is sentinel
        assert current_lane() is None

    def test_suspend_hides_lane(self):
        sentinel = object()
        with lane_scope(sentinel):
            with suspend_lane():
                assert current_lane() is None
            assert current_lane() is sentinel

    def test_lane_scope_nests(self):
        outer, inner = object(), object()
        with lane_scope(outer):
            with lane_scope(inner):
                assert current_lane() is inner
            assert current_lane() is outer
