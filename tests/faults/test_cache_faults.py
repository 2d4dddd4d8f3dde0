"""Injected faults against the result cache: corruption, exhaustion,
unwritable stores, and the LRU eviction race.

The store's contract under fire: corruption is a miss with the evidence
quarantined, a store that cannot be written degrades instead of raising,
and a concurrent evictor stealing an entry is benign.
"""

import json
import os

import pytest

from repro.cache import QUARANTINE_DIR, ResultCache
from repro.faults import FaultPlan, FaultSpec, activate

from conftest import CHAOS_SEEDS  # same-directory module

KEY_A = "a" * 64
KEY_B = "b" * 64
PAYLOAD = {"result": {"status": "ok", "board": "x"}, "routed_board": None}


def torn_plan(**kwargs) -> FaultPlan:
    return FaultPlan(
        "torn", specs=[FaultSpec(site="cache.write", mode="torn", **kwargs)]
    )


class TestCorruption:
    def test_torn_write_quarantines_then_repopulates(self, tmp_path, decoded):
        cache = ResultCache(str(tmp_path / "cache"))
        with activate(torn_plan(max_fires=1)):
            path = cache.put(KEY_A, PAYLOAD)
        # The torn entry sits at the *final* path — exactly the
        # artifact a killed non-atomic writer leaves behind.
        assert os.path.exists(path)
        with open(path) as fh:
            with pytest.raises(json.JSONDecodeError):
                json.load(fh)
        assert cache.get(KEY_A) is None  # corruption is a miss...
        assert not os.path.exists(path)  # ...and the entry is repaired
        qdir = tmp_path / "cache" / QUARANTINE_DIR
        assert len(list(qdir.iterdir())) == 1  # ...with the bytes kept
        cache.put(KEY_A, PAYLOAD)  # plan max_fires exhausted: clean write
        assert decoded(cache.get(KEY_A)) == PAYLOAD
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["quarantined"] == 1
        assert stats["mode"] == "ok"  # corruption degrades nothing

    def test_garbage_write_is_also_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        plan = FaultPlan(
            "garbage",
            specs=[FaultSpec(site="cache.write", mode="garbage", max_fires=1)],
        )
        with activate(plan):
            cache.put(KEY_A, PAYLOAD)
        assert cache.get(KEY_A) is None
        assert cache.stats()["quarantined"] == 1

    def test_read_garbage_corrupts_then_real_path_recovers(self, tmp_path, decoded):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(KEY_A, PAYLOAD)
        plan = FaultPlan(
            "bitrot",
            specs=[FaultSpec(site="cache.read", mode="garbage", max_fires=1)],
        )
        with activate(plan):
            assert cache.get(KEY_A) is None  # the injected bitrot read
        assert cache.stats()["corrupt"] == 1
        assert cache.put(KEY_A, PAYLOAD) is not None
        assert decoded(cache.get(KEY_A)) == PAYLOAD

    def test_quarantined_files_survive_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with activate(torn_plan(max_fires=1)):
            cache.put(KEY_A, PAYLOAD)
        cache.get(KEY_A)  # quarantines
        cache.put(KEY_B, PAYLOAD)
        assert cache.clear() == 1  # only the healthy entry
        qdir = tmp_path / "cache" / QUARANTINE_DIR
        assert len(list(qdir.iterdir())) == 1


class TestDegradedMode:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_enospc_degrades_instead_of_raising(self, tmp_path, decoded, seed):
        cache = ResultCache(str(tmp_path / "cache"))
        plan = FaultPlan(
            "full-disk",
            seed=seed,
            specs=[FaultSpec(site="cache.write", mode="enospc")],
        )
        assert cache.put(KEY_A, PAYLOAD) is not None
        with activate(plan):
            assert cache.put(KEY_B, PAYLOAD) is None  # no raise
        stats = cache.stats()
        assert stats["mode"] == "degraded"
        assert "no space left" in stats["degraded_reason"].lower()
        assert stats["put_errors"] == 1
        # Reads still serve; later puts are recorded no-ops even after
        # the plan is gone (degradation is sticky — the disk didn't fix
        # itself because the test block ended).
        assert decoded(cache.get(KEY_A)) == PAYLOAD
        assert cache.put(KEY_B, PAYLOAD) is None

    def test_uncreatable_directory_degrades_at_init(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir's parent should be")
        cache = ResultCache(str(blocker / "cache"))
        assert cache.degraded is not None
        assert cache.put(KEY_A, PAYLOAD) is None  # no raise, no entry
        assert cache.get(KEY_A) is None
        assert cache.stats()["mode"] == "degraded"


class TestEvictionRace:
    def _filled_cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(str(tmp_path / "cache"), max_bytes=10_000_000)
        for i in range(4):
            cache.put(f"{i:x}" * 64, PAYLOAD)
        return cache

    def test_concurrent_evictor_stealing_an_entry_is_benign(
        self, tmp_path, monkeypatch
    ):
        """A second evictor (another thread or daemon on the same
        store) unlinking an entry first must not crash the sweep,
        must still count the freed bytes toward the budget, and must
        not claim the eviction as ours."""
        cache = self._filled_cache(tmp_path)
        real_unlink = os.unlink
        stolen = []

        def racing_unlink(path, *args, **kwargs):
            if not stolen:
                stolen.append(path)
                real_unlink(path)  # the "other evictor" wins the race
            return real_unlink(path)  # ours now sees FileNotFoundError

        monkeypatch.setattr(os, "unlink", racing_unlink)
        cache.max_bytes = 1  # force a full sweep
        evicted = cache._evict_if_needed()
        stats = cache.stats()
        assert stats["entries"] == 0  # the sweep completed regardless
        assert evicted == 3  # the stolen entry is not double-counted
        assert stats["evictions"] == 3

    def test_eviction_still_converges_under_budget(self, tmp_path):
        cache = self._filled_cache(tmp_path)
        entry_bytes = cache.stats()["bytes"] // 4
        cache.max_bytes = int(entry_bytes * 2.5)
        cache._evict_if_needed()
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] <= cache.max_bytes
