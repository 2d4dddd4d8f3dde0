"""``SessionConfig.fingerprint()`` — the cache-key config half.

The contract: two configs that *behave* identically hash identically
(provenance-only fields and int/float spelling don't count), while any
effective knob change changes the hash.  This is what makes it safe to
key the content-addressed result cache on it — a stale artifact can
never be served across a preset or parameter change.
"""

import pytest

from repro.api import SessionConfig
from repro.api.config import DrcConfig, RegionConfig
from repro.core import ExtensionConfig


@pytest.mark.smoke
class TestFingerprintStability:
    def test_is_a_sha256_hex_digest(self):
        fp = SessionConfig().fingerprint()
        assert len(fp) == 64
        assert all(c in "0123456789abcdef" for c in fp)

    def test_same_config_same_hash(self):
        assert (
            SessionConfig.preset("fast").fingerprint()
            == SessionConfig.preset("fast").fingerprint()
        )

    def test_preset_name_is_provenance_only(self):
        # preset("default") and a bare SessionConfig() run the same
        # pipeline; only preset_name differs, and it must not count.
        assert (
            SessionConfig.preset("default").fingerprint()
            == SessionConfig().fingerprint()
        )

    def test_hand_built_equivalent_of_preset_matches(self):
        preset = SessionConfig.preset("fast")
        rebuilt = SessionConfig(
            extension=ExtensionConfig(max_iterations=150, max_points=64),
            pair_topup_rounds=1,
            region=RegionConfig(enabled=False),
        )
        assert rebuilt.preset_name == "custom"
        assert rebuilt.fingerprint() == preset.fingerprint()

    def test_int_float_spelling_is_canonicalized(self):
        a = SessionConfig(tolerance=1)
        b = SessionConfig(tolerance=1.0)
        assert a.fingerprint() == b.fingerprint()

    def test_roundtrip_through_to_dict_is_stable(self):
        config = SessionConfig.preset("quality")
        clone = SessionConfig.from_dict(config.to_dict())
        assert clone.fingerprint() == config.fingerprint()


@pytest.mark.smoke
class TestFingerprintSensitivity:
    def test_preset_fingerprints_track_effective_params(self):
        fps = {
            name: SessionConfig.preset(name).fingerprint()
            for name in SessionConfig.PRESETS
        }
        # "paper" pins the same caps as "default" explicitly (it exists
        # for provenance, not behavior) so the two *share* a fingerprint
        # — a paper-preset artifact is servable to a default-preset
        # request, which is correct.  Every behaviorally distinct preset
        # hashes differently.
        assert fps["paper"] == fps["default"]
        distinct = {fps[n] for n in ("default", "fast", "quality", "bench")}
        assert len(distinct) == 4

    def test_param_change_changes_hash(self):
        base = SessionConfig()
        assert (
            SessionConfig(tolerance=2e-3).fingerprint() != base.fingerprint()
        )
        assert (
            SessionConfig(pair_topup_rounds=4).fingerprint()
            != base.fingerprint()
        )
        assert (
            SessionConfig(
                region=RegionConfig(enabled=False)
            ).fingerprint()
            != base.fingerprint()
        )
        assert (
            SessionConfig(drc=DrcConfig(check_areas=False)).fingerprint()
            != base.fingerprint()
        )

    def test_nested_extension_knob_counts(self):
        assert (
            SessionConfig(
                extension=ExtensionConfig(max_iterations=401)
            ).fingerprint()
            != SessionConfig(
                extension=ExtensionConfig(max_iterations=400)
            ).fingerprint()
        )

    def test_bool_is_not_a_number(self):
        # True must not collide with 1.0: a knob set to a count of one
        # and a flag turned on are different configurations.
        a = SessionConfig(breakout_nodes=1)
        b = SessionConfig(breakout_nodes=True)  # type: ignore[arg-type]
        assert a.fingerprint() != b.fingerprint()

    def test_snapshot_key_order_is_pinned(self):
        # The router's knobs first (inherited from RouterConfig), then
        # the stages' own: results and cache entries carry this order.
        assert list(SessionConfig().to_dict()) == [
            "extension",
            "breakout_nodes",
            "compensate_pairs",
            "pair_topup_rounds",
            "apply_miter",
            "tolerance",
            "region",
            "drc",
            "preset_name",
        ]

    @pytest.mark.parametrize(
        "name, fingerprint",
        [
            ("default", "dd02ebd88f1d07a93d0d23e7ce0156ff75393ce56622c26a45f91cc5642e9570"),
            ("paper", "dd02ebd88f1d07a93d0d23e7ce0156ff75393ce56622c26a45f91cc5642e9570"),
            ("fast", "995ae566cb3fd2682eaec1c5356f1b5f9687109b4cd8c398cf46f353374f7ac4"),
            ("quality", "d818ce8044fa6674bf6f2e2ad63de4c8aa86c68758988f9eeee51b64c7eb1e72"),
            ("bench", "6c9ae0ef63dccebd5253d0c9912e2128e3036db3c45111b1031c626881c5e24d"),
        ],
    )
    def test_preset_fingerprint_is_pinned(self, name, fingerprint):
        # The config half of every cache key: a change here silently
        # orphans every stored result, so it must be deliberate.
        assert SessionConfig.preset(name).fingerprint() == fingerprint

    def test_close_floats_do_not_collide(self):
        a = SessionConfig(tolerance=1e-3)
        b = SessionConfig(tolerance=1e-3 + 1e-15)
        assert a.fingerprint() != b.fingerprint()
