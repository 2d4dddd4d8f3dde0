"""repro.cache — content addressing, atomicity, corruption, eviction."""

import json
import os
import subprocess
import sys

import pytest

import repro.cache as cache_mod
from repro._version import __version__
from repro.api import SessionConfig
from repro.cache import CACHE_FORMAT_VERSION, QUARANTINE_DIR, ResultCache, cache_key
from repro.io import board_to_dict
from repro.model import Board, DesignRules

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _board(name="b", width=100.0) -> Board:
    board = Board.with_rect_outline(
        0.0, 0.0, width, 60.0, DesignRules(dgap=4.0, dobs=2.0, dprotect=2.0)
    )
    board.name = name
    return board


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(str(tmp_path / "cache"))


@pytest.mark.smoke
class TestCacheKey:
    def test_same_inputs_same_key(self):
        fp = SessionConfig.preset("fast").fingerprint()
        a = cache_key(board_to_dict(_board()), fp)
        b = cache_key(board_to_dict(_board()), fp)
        assert a == b
        assert len(a) == 64

    def test_key_order_independent(self):
        # The same board document with shuffled dict insertion order is
        # the same content, hence the same address.
        fp = SessionConfig.preset("fast").fingerprint()
        doc = board_to_dict(_board())
        shuffled = dict(reversed(list(doc.items())))
        assert cache_key(doc, fp) == cache_key(shuffled, fp)

    def test_key_numeric_spelling_independent(self, tmp_path):
        # Regression: a saved board *file* (ints where geometry was
        # integral: outline [[0,0],...]) and the decoded-re-encoded
        # board (floats: [[0.0,0.0],...]) are the same content and must
        # share one address — a POST of the raw document and the CLI's
        # board_to_dict() path must hit each other's cache entries.
        import json

        from repro import load_board, save_board
        from repro.io import canonical_json

        path = str(tmp_path / "b.json")
        save_board(_board(), path)
        with open(path) as fh:
            disk = json.load(fh)
        mem = board_to_dict(load_board(path))
        assert canonical_json(disk) == canonical_json(mem)
        fp = SessionConfig.preset("fast").fingerprint()
        assert cache_key(disk, fp) == cache_key(mem, fp)

    def test_board_change_changes_key(self):
        fp = SessionConfig.preset("fast").fingerprint()
        assert cache_key(board_to_dict(_board()), fp) != cache_key(
            board_to_dict(_board(width=101.0)), fp
        )

    def test_config_change_changes_key(self):
        doc = board_to_dict(_board())
        assert cache_key(
            doc, SessionConfig.preset("fast").fingerprint()
        ) != cache_key(doc, SessionConfig.preset("quality").fingerprint())

    def test_pinned_key(self):
        # One fixed document's address, as every earlier release computed
        # it: a canonicalisation change that re-addresses existing stores
        # (or splits in-process keys from the daemon's) fails here.  The
        # document is the 1-tile ``tiled``/``serpentine_bus`` seed-0 board,
        # both as the encoder emits it and as a client re-parses its JSON.
        from repro.scenarios import generate

        board = generate(
            "tiled",
            seed=0,
            params={"tiles": 1, "base": "serpentine_bus", "base_params": {}},
        )
        doc = board_to_dict(board)
        fp = SessionConfig.preset("default").fingerprint()
        pinned = "c5c8bc044a2e9d79eec492d45bfbe68f2131181fa77c7d75b4aca77104f6990f"
        assert cache_key(doc, fp, version="1.5.0") == pinned
        assert cache_key(json.loads(json.dumps(doc)), fp, version="1.5.0") == pinned

    def test_version_change_changes_key(self):
        doc = board_to_dict(_board())
        fp = SessionConfig.preset("fast").fingerprint()
        assert cache_key(doc, fp, version="0.0.0") != cache_key(
            doc, fp, version="0.0.1"
        )


@pytest.mark.smoke
class TestCacheStore:
    def test_put_get_roundtrip(self, cache):
        key = "ab" * 32
        payload = {"result": {"status": "ok"}, "routed_board": {"name": "b"}}
        cache.put(key, payload)
        assert cache.get(key) == payload
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_entry_format_3(self, cache):
        # A one-line header, then each part encoded once: the header
        # names the parts' byte lengths, repeats the result's status,
        # error and board name, and its sha256 covers those three fields
        # and everything after the header line.
        import hashlib

        key = "ab" * 32
        result = {"status": "failed", "x": [1.5, 2], "board": "b", "error": None}
        payload = {"result": result, "routed_board": None}
        path = cache.put(key, payload)
        with open(path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
        parts = [json.dumps(v, separators=(",", ":")).encode() for v in payload.values()]
        fields = b'{"status":"failed","error":null,"board":"b"}'
        assert json.loads(head) == {
            "kind": "cache_entry",
            "version": CACHE_FORMAT_VERSION,
            "repro_version": __version__,
            "key": key,
            "parts": {"result": len(parts[0]), "routed_board": len(parts[1])},
            "status": "failed",
            "error": None,
            "board": "b",
            "sha256": hashlib.sha256(fields + b"\n" + body).hexdigest(),
        }
        assert CACHE_FORMAT_VERSION == 3
        assert body == parts[0] + b"\n" + parts[1] + b"\n"
        assert cache.get(key).answer == {"status": "failed", "error": None, "board": "b"}

    def test_answer_fields_default_like_the_envelope(self, cache):
        # A result without the fields stores what an answer reads for
        # them; an entry without a result object stores none.
        key = "ab" * 32
        cache.put(key, {"result": {"n": 1}})
        assert cache.get(key).answer == {"status": "ok", "error": None, "board": ""}
        cache.put(key, {"v": 1})
        with open(os.path.join(cache.cache_dir, f"{key}.json"), "rb") as fh:
            assert b'"status"' not in fh.readline()
        assert cache.get(key).answer is None

    @pytest.mark.parametrize(
        "result",
        [{"status": 200}, {"status": "ok", "board": None}, {"error": "boom"}],
        ids=["status", "board", "error"],
    )
    def test_put_refuses_mistyped_answer_fields(self, cache, result):
        with pytest.raises(ValueError):
            cache.put("ab" * 32, {"result": result})
        assert cache.stats()["entries"] == 0

    def test_entry_decodes_parts_lazily_and_keeps_their_bytes(self, cache):
        key = "ab" * 32
        payload = {"result": {"status": "ok"}, "routed_board": {"name": "b"}}
        cache.put(key, payload)
        entry = cache.get(key)
        assert "routed_board" in entry and "other" not in entry
        assert entry.encoded == {
            name: json.dumps(value, separators=(",", ":")).encode()
            for name, value in payload.items()
        }
        assert entry["result"] == {"status": "ok"}
        assert entry["result"] is entry["result"]  # read once
        assert entry["result"].encoded == entry.encoded["result"]
        assert entry["routed_board"].encoded == entry.encoded["routed_board"]
        assert entry.get("absent") is None
        with pytest.raises(TypeError):
            entry["result"] = {}  # read-only
        assert dict(entry) == payload and list(entry) == list(payload)

    def test_object_part_decodes_on_first_read(self, cache, monkeypatch):
        import copy
        import pickle

        key = "ab" * 32
        value = {"status": "ok", "v": [0.1, {"w": None}]}
        cache.put(key, {"result": value})
        part = cache.get(key)["result"]
        assert isinstance(part, dict) and isinstance(part, cache_mod.StoredObject)
        loads = []
        monkeypatch.setattr(
            cache_mod, "json", type("J", (), {"loads": lambda raw: loads.append(raw)})
        )
        assert part.encoded == json.dumps(value, separators=(",", ":")).encode()
        assert loads == []
        monkeypatch.undo()
        # The encoder, comparisons and copies all see the decoded object.
        assert json.dumps(part, separators=(",", ":")).encode() == part.encoded
        other = cache.get(key)["result"]
        assert other == part == value and not (other != value)
        assert len(part) == 2 and list(part) == ["status", "v"] and "v" in part
        for clone in (part.copy(), copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
            assert type(clone) is dict and clone == value
        for write in (
            lambda p: p.__setitem__("x", 1),
            lambda p: p.update(x=1),
            lambda p: p.pop("v"),
            lambda p: p.clear(),
        ):
            with pytest.raises(TypeError):
                write(part)
        assert part == value

    def test_absent_key_is_a_miss(self, cache):
        assert cache.get("cd" * 32) is None
        assert cache.stats()["misses"] == 1

    def test_malformed_key_rejected(self, cache):
        # Keys arrive over HTTP (GET /result/<key>); anything that is
        # not a hex digest must be rejected, not joined into a path.
        for bad in ("", "../escape", "ABCDEF", "xy" * 32):
            with pytest.raises(ValueError):
                cache.put(bad, {})
            with pytest.raises(ValueError):
                cache.get(bad)

    def test_contains_does_not_touch_counters(self, cache):
        key = "ef" * 32
        assert key not in cache
        cache.put(key, {"x": 1})
        assert key in cache
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_overwrite_wins(self, cache):
        key = "12" * 32
        cache.put(key, {"v": 1})
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}
        assert cache.stats()["entries"] == 1

    def test_clear(self, cache):
        cache.put("34" * 32, {"v": 1})
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestCorruption:
    """A broken entry is a miss that repairs itself — never an error."""

    def _entry_path(self, cache, key):
        cache.put(key, {"v": 1})
        return os.path.join(cache.cache_dir, f"{key}.json")

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # zero-length (a killed writer before any byte)
            b"{\"kind\": \"cache_entry\"",  # truncated JSON
            b"not json at all \x00\xff",
            json.dumps({"kind": "corpus_case"}).encode(),  # foreign doc
            json.dumps(["a", "list"]).encode(),  # wrong shape
        ],
    )
    def test_garbage_entry_is_miss_and_repaired(self, cache, garbage):
        key = "56" * 32
        path = self._entry_path(cache, key)
        with open(path, "wb") as fh:
            fh.write(garbage)
        assert cache.get(key) is None
        # Repaired: the poisoned file is gone, and a re-put serves again.
        assert not os.path.exists(path)
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_wrong_key_in_document_is_corrupt(self, cache):
        # An entry renamed to another address must not serve under it.
        key_a, key_b = "78" * 32, "9a" * 32
        path_a = self._entry_path(cache, key_a)
        os.replace(path_a, os.path.join(cache.cache_dir, f"{key_b}.json"))
        assert cache.get(key_b) is None
        assert cache.stats()["corrupt"] == 1


    def test_flipped_byte_inside_a_part_is_quarantined(self, cache):
        # Same length, valid JSON, wrong bytes: only the digest sees it.
        key = "bd" * 32
        path = cache.put(key, {"result": {"status": "ok", "n": 1234}})
        with open(path, "rb") as fh:
            data = fh.read()
        tampered = data.replace(b'"n":1234', b'"n":1235')
        assert tampered != data and len(tampered) == len(data)
        with open(path, "wb") as fh:
            fh.write(tampered)
        assert cache.get(key) is None
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["quarantined"] == 1
        quarantined = os.path.join(cache.cache_dir, QUARANTINE_DIR, f"{key}.json")
        with open(quarantined, "rb") as fh:
            assert fh.read() == tampered

    def test_stale_format_entry_is_a_plain_miss(self, cache):
        # A version-1 entry, written exactly as the format-1 writer did:
        # after an upgrade every entry of a store looks like this.  It is
        # deleted, not quarantined, and not counted as corrupt.
        key = "ce" * 32
        path = os.path.join(cache.cache_dir, f"{key}.json")
        document = {
            "kind": "cache_entry",
            "version": 1,
            "repro_version": __version__,
            "key": key,
            "payload": {"result": {"status": "ok"}, "routed_board": None},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))
        assert cache.get(key) is None
        assert not os.path.exists(path)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["corrupt"] == 0 and stats["quarantined"] == 0
        qdir = os.path.join(cache.cache_dir, QUARANTINE_DIR)
        assert not os.path.isdir(qdir) or not os.listdir(qdir)
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_newer_format_entry_is_a_miss_left_in_place(self, cache):
        # Written by a newer daemon sharing the store: this one cannot
        # read it, but must neither quarantine nor delete it.
        key = "cf" * 32
        path = os.path.join(cache.cache_dir, f"{key}.json")
        header = {
            "kind": "cache_entry",
            "version": CACHE_FORMAT_VERSION + 1,
            "key": key,
        }
        data = json.dumps(header).encode() + b"\nwhatever comes next\n"
        with open(path, "wb") as fh:
            fh.write(data)
        assert cache.get(key) is None
        with open(path, "rb") as fh:
            assert fh.read() == data
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["corrupt"] == 0 and stats["quarantined"] == 0

    def test_stale_delete_spares_an_entry_renamed_in_after_the_read(
        self, cache, monkeypatch
    ):
        # A writer publishes a current entry between this reader's read
        # of the old-format file and its delete: the new entry survives.
        key = "cd" * 32
        path = os.path.join(cache.cache_dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "cache_entry", "version": 1, "key": key}, fh)
        real_drop = ResultCache._drop_stale

        def drop_after_a_put(self, stale_path, read):
            self._put(key, {"v": 2})
            real_drop(self, stale_path, read)

        monkeypatch.setattr(ResultCache, "_drop_stale", drop_after_a_put)
        assert cache.get(key) is None
        monkeypatch.undo()
        assert cache.get(key) == {"v": 2}
        assert sorted(os.listdir(cache.cache_dir)) == [f"{key}.json"]


class TestEviction:
    def test_lru_sweep_is_bounded_and_evicts_oldest(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), max_bytes=1)
        filler = {"pad": "x" * 512}
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, dict(filler, i=i))
        # Budget of one byte: every insert sweeps everything older away;
        # only the newest entry can survive its own insert's sweep.
        stats = cache.stats()
        assert stats["evictions"] >= 3
        assert stats["entries"] <= 1

    def test_within_budget_nothing_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), max_bytes=1024 * 1024)
        for i in range(4):
            cache.put(f"{i:02x}" * 32, {"i": i})
        stats = cache.stats()
        assert stats["evictions"] == 0 and stats["entries"] == 4

    def test_put_under_budget_does_not_list_the_store(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "c"), max_bytes=1024 * 1024)
        cache.put("00" * 32, {"i": 0})  # the first put sweeps
        listed = []
        real_listdir = os.listdir

        def listdir(path):
            listed.append(path)
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        for i in range(1, cache_mod.SWEEP_EVERY_PUTS):
            cache.put(f"{i:02x}" * 32, {"i": i})
        assert listed == []
        cache.put("ff" * 32, {"i": 255})
        assert listed == [cache.cache_dir]

    def test_two_instances_on_one_store_stay_within_budget(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cache_mod, "SWEEP_EVERY_PUTS", 8)
        store = str(tmp_path / "c")

        def put(cache, i):
            cache.put(f"{i:04x}" * 16, {"pad": "x" * 256, "i": f"{i:04d}"})

        a = ResultCache(store)
        put(a, 0)  # a sweeps: its total is this one entry
        entry = a.stats()["bytes"]
        a.max_bytes = budget = 20 * entry
        b = ResultCache(store, max_bytes=budget)
        for i in range(1, 20):
            put(b, i)
        assert b.stats()["bytes"] == budget
        # a's total still counts one entry and its own puts: the store
        # runs over budget until a's eighth put since its sweep.
        for i in range(20, 27):
            put(a, i)
        assert a.stats()["bytes"] == budget + 7 * entry
        put(a, 27)
        stats = a.stats()
        assert stats["bytes"] == budget and stats["evictions"] == 8
        assert b.stats()["evictions"] == 0


#: Writer subprocess: hammer one key with complete distinct payloads.
_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.cache import ResultCache

cache = ResultCache({cache_dir!r})
key = {key!r}
for n in range({rounds}):
    cache.put(key, {{"writer": {writer}, "n": n, "pad": "x" * 4096}})
"""


class TestConcurrency:
    """Two processes writing the same key: atomic rename wins, readers
    never observe a torn entry."""

    def test_concurrent_writers_no_torn_reads(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        cache = ResultCache(cache_dir)
        key = "bc" * 32
        rounds = 60
        writers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _WRITER.format(
                        src=SRC_DIR,
                        cache_dir=cache_dir,
                        key=key,
                        rounds=rounds,
                        writer=w,
                    ),
                ]
            )
            for w in (1, 2)
        ]
        torn = 0
        observed = set()
        try:
            while any(p.poll() is None for p in writers):
                payload = cache.get(key)
                if payload is None:
                    continue
                # Any successfully-read payload must be complete: both
                # identifying fields present and the padding intact.
                if (
                    payload.get("writer") not in (1, 2)
                    or payload.get("pad") != "x" * 4096
                ):
                    torn += 1
                else:
                    observed.add(payload["writer"])
        finally:
            for p in writers:
                p.wait(timeout=60)
        assert torn == 0
        assert all(p.returncode == 0 for p in writers)
        # The file on disk is one writer's final, complete entry.
        final = cache.get(key)
        assert final is not None
        assert final["writer"] in (1, 2) and final["n"] == rounds - 1
        # Interleaving should have let the reader see both writers at
        # some point; corruption would have shown up as torn reads, so
        # this is informational coverage, not a hard scheduling claim.
        assert observed  # at least one complete read happened mid-race
        assert cache.stats()["corrupt"] == 0
