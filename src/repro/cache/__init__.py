"""Persistent content-addressed result cache.

The cache maps a *content address* — the SHA-256 of the canonical input
board JSON, the :meth:`~repro.api.SessionConfig.fingerprint` of the
config that would route it, and the library version — to the full run
artifact (the :class:`~repro.api.RunResult` dict plus the routed board
geometry) on disk.  Identical requests are therefore served without
executing any pipeline stage: the key *is* the computation's identity,
so a hit is correct by construction and a stale entry is unreachable
(any change to the board, an effective config knob, or the routing code
version changes the key).

Design points:

* **Entry format 3: parts encoded once, the answer in the header** —
  an entry file is a one-line JSON header followed by each top-level
  payload value as compact JSON, one per line.  The header holds
  ``kind``, ``version`` 3, ``key``, each part's byte length, the
  ``status``, ``error`` and ``board`` of the ``result`` part when that
  part is an object (:data:`~repro.io.ANSWER_FIELDS`, which are what an
  answer repeats outside the result), and a ``sha256`` that covers those
  three fields and everything after the header line.
  :meth:`CacheEntry.of` encodes each value once, and the stored bytes
  are exactly ``json.dumps(value, separators=(",", ":"))``.
* **One entry type for reads and writes** — a :class:`CacheEntry` is a
  plain record of each part's bytes (``encoded``) and the answer
  fields (``answer``).  :meth:`ResultCache.get` checks the header, the
  answer fields' types and the digest and returns the stored bytes
  undecoded; :meth:`ResultCache.publish` returns the entry it just
  encoded and stored.  The daemon answers a hit and a miss alike from
  ``answer`` and the part bytes, and a caller that wants a part as a
  value decodes it with ``json.loads``.
* **Other formats are misses** — an entry whose header is a
  ``cache_entry`` of another format version is counted as a plain miss,
  not as corruption.  An older one (every entry of a store that
  predates an upgrade) is deleted, so an upgrade re-routes each board
  once: quarantining a whole upgraded store would move it into a
  sidecar that nothing bounds.  A newer one is left in place.  The
  delete never removes an entry that a writer renamed into place after
  the read.  Daemons of different formats must not share one store:
  each re-routes the other's keys and overwrites their entries, and a
  format-1 daemon (which predates this rule) quarantines every newer
  entry it reads as corrupt.
* **Atomic writes** — entries are written to a same-directory temp file
  and ``os.replace``'d into place, so concurrent writers of the same
  key race benignly (last rename wins, both files are complete) and a
  reader can never observe a torn entry.
* **Corruption is a miss, and evidence is kept** — a truncated or
  garbage entry file, one whose header lacks or mistypes an answer
  field, or one whose fields or parts fail the header's digest, is
  counted, *quarantined* into the ``quarantine/`` sidecar directory
  (not silently deleted — the bytes are the forensic record of whatever
  tore them) and reported as a miss; the next route re-populates the
  key.
* **Degraded beats dead** — a store that cannot be written (unwritable
  directory, ``ENOSPC``) flips the cache into *degraded* mode instead
  of raising out of the request path: :meth:`put` becomes a recorded
  no-op, :meth:`get` keeps trying (reads may still work), and
  :meth:`stats` reports ``mode="degraded"`` plus the reason — which is
  what the server surfaces in ``/healthz`` while it keeps routing.
* **Bounded size** — ``max_bytes`` caps the store; when an insert
  pushes past it, a least-recently-used sweep (by file mtime, which
  :meth:`get` refreshes on every hit) evicts oldest entries until the
  store fits again.  A put does not list the store: it adds its bytes
  to the total the last sweep found, and sweeps only when that total
  passes ``max_bytes`` or :data:`SWEEP_EVERY_PUTS` puts have passed
  since (so what other writers of a shared store add is still
  counted).  Concurrent evictors racing over one entry are benign: the
  loser's ``FileNotFoundError`` counts the freed bytes but not the
  eviction.
* **Observable** — hit/miss/eviction/corruption/quarantine counters
  plus on-disk entry/byte totals surface through
  :meth:`ResultCache.stats`, which is what the server's ``GET /stats``
  endpoint returns.

Fault injection (:mod:`repro.faults`) compiles into both I/O paths:
``cache.write`` supports ``torn`` (a non-atomic half-written entry at
the final path, exactly what a killed pre-PR-6 writer would leave),
``garbage`` (arbitrary bytes) and ``enospc`` (an injected
``OSError(ENOSPC)`` taking the real degradation path); ``cache.read``
supports ``garbage`` (corrupts the on-disk entry first, so the genuine
quarantine machinery handles it).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from .._version import __version__
from .. import faults, obs
from ..io import (
    ANSWER_FIELDS,
    answer_fields,
    board_to_dict,
    canonical_json,
    run_result_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import RunResult
    from ..model import Board

#: Entry documents are self-describing like every other repro artifact.
CACHE_FORMAT_VERSION = 3
CACHE_KIND = "cache_entry"

#: A cache key: a lowercase hex digest, never a path fragment.
_HEX_KEY = re.compile(r"[0-9a-f]+")

#: Where corrupt entries are moved for post-mortem instead of deleted.
QUARANTINE_DIR = "quarantine"

#: Default store budget: plenty for tens of thousands of results while
#: staying invisible on a developer machine.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Puts between two sweeps of a store that stays under budget by this
#: instance's count: the sweep is what sees entries other writers added.
SWEEP_EVERY_PUTS = 64


def cache_key(
    board_dict: Dict[str, Any],
    config_fingerprint: str,
    version: str = __version__,
) -> str:
    """The content address of one routing computation.

    ``sha256(canonical board JSON + config fingerprint + repro
    version)``: any change to the input geometry, to an *effective*
    config knob (``fingerprint()`` already ignores provenance-only
    fields), or to the code version yields a different key — the three
    things that could change what routing would produce.
    """
    hasher = hashlib.sha256()
    hasher.update(canonical_json(board_dict).encode("utf-8"))
    hasher.update(b"\n")
    hasher.update(config_fingerprint.encode("ascii"))
    hasher.update(b"\n")
    hasher.update(version.encode("utf-8"))
    return hasher.hexdigest()


class StaleEntry(Exception):
    """An entry written by another cache format version: a plain miss."""

    def __init__(self, version: int) -> None:
        super().__init__(f"cache entry format {version}")
        self.version = version


def _check_answer(answer: Dict[str, Any]) -> None:
    """``ValueError`` unless the answer fields have the types a
    run's do: ``status`` and ``board`` strings, ``error`` an object or
    ``None``."""
    if not (
        type(answer["status"]) is str
        and type(answer["board"]) is str
        and (answer["error"] is None or type(answer["error"]) is dict)
    ):
        raise ValueError("cache entry answer fields are malformed")


#: ``json.dumps(value, separators=(",", ":"))`` without building an
#: encoder per call (the digest encodes the answer fields on every read).
_COMPACT = json.JSONEncoder(separators=(",", ":"))


@dataclass(slots=True)
class CacheEntry:
    """One stored payload: each part's compact JSON bytes and the answer.

    ``encoded`` maps each top-level payload name to exactly
    ``json.dumps(value, separators=(",", ":"))`` as ASCII bytes, which is
    what the entry file stores and what the daemon writes into its
    answers.  ``answer`` is the ``result`` part's
    :data:`~repro.io.ANSWER_FIELDS` (``None`` when that part is not an
    object), which the entry header repeats.  A reader that wants a part
    as a value decodes its bytes with ``json.loads``.
    """

    encoded: Dict[str, bytes]
    answer: Optional[Dict[str, Any]] = None

    @classmethod
    def of(cls, payload: Dict[str, Any]) -> "CacheEntry":
        """``payload`` with each value encoded once, here."""
        result = payload.get("result")
        return cls(
            {
                name: _COMPACT.encode(value).encode("ascii")
                for name, value in payload.items()
            },
            answer_fields(result) if isinstance(result, dict) else None,
        )


def _digest(answer: Optional[Dict[str, Any]], body: bytes) -> str:
    """The entry digest: the answer fields' compact JSON (``null``
    without them), a newline, then every part."""
    hasher = hashlib.sha256(_COMPACT.encode(answer).encode("ascii"))
    hasher.update(b"\n")
    hasher.update(body)
    return hasher.hexdigest()


def _entry_bytes(key: str, entry: CacheEntry) -> bytes:
    """The format-3 entry file: a one-line JSON header, then each part
    followed by a newline.  The header carries the entry's ``answer``
    fields (when the ``result`` part is an object) and a ``sha256`` that
    covers them and everything after the header line."""
    body = b"".join(part + b"\n" for part in entry.encoded.values())
    header = {
        "kind": CACHE_KIND,
        "version": CACHE_FORMAT_VERSION,
        "repro_version": __version__,
        "key": key,
        "parts": {name: len(part) for name, part in entry.encoded.items()},
    }
    if entry.answer is not None:
        header.update(entry.answer)
    header["sha256"] = _digest(entry.answer, body)
    return json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n" + body


def _decode_entry(data: bytes, key: str) -> CacheEntry:
    """Check an entry file's header and digest; raises :class:`StaleEntry`
    for another format version and ``ValueError`` for anything corrupt."""
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    if not isinstance(header, dict) or header.get("kind") != CACHE_KIND:
        raise ValueError("not a cache entry")
    version = header.get("version")
    if version != CACHE_FORMAT_VERSION:
        if type(version) is int:
            raise StaleEntry(version)
        raise ValueError("cache entry without a format version")
    parts = header.get("parts")
    if header.get("key") != key or not isinstance(parts, dict):
        raise ValueError("not a cache entry for this key")
    encoded: Dict[str, bytes] = {}
    offset = 0
    for name, length in parts.items():
        if type(length) is not int or length < 0:
            raise ValueError("cache entry part lengths do not match")
        end = offset + length
        if body[end : end + 1] != b"\n":
            raise ValueError("cache entry part lengths do not match")
        encoded[name] = body[offset:end]
        offset = end + 1
    if offset != len(body):
        raise ValueError("cache entry part lengths do not match")
    answer = None
    if encoded.get("result", b"")[:1] == b"{":
        try:
            answer = {name: header[name] for name in ANSWER_FIELDS}
        except KeyError:
            raise ValueError("cache entry header lacks the answer fields")
        _check_answer(answer)
    if _digest(answer, body) != header.get("sha256"):
        raise ValueError("cache entry digest mismatch")
    return CacheEntry(encoded, answer)


class ResultCache:
    """A directory of content-addressed run artifacts.

    Thread-safe: the counters and the eviction sweep are guarded by one
    lock, while entry reads/writes rely on the filesystem's atomic
    rename semantics (safe across *processes* too — see the module
    docstring).
    """

    def __init__(
        self,
        cache_dir: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.cache_dir = cache_dir
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: Bytes on disk at the last sweep plus what this instance has
        #: written since (``None`` before the first sweep), and the puts
        #: since that sweep.
        self._known_bytes: Optional[int] = None
        self._puts_since_sweep = 0
        #: Per-instance registry (two caches in one process must not
        #: bleed into each other's numbers — tests assert per-instance
        #: counts); the server merges it into ``GET /metrics``.
        self.metrics = obs.MetricsRegistry()
        for _name in (
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_evictions_total",
            "repro_cache_corrupt_total",
            "repro_cache_quarantined_total",
            "repro_cache_put_errors_total",
        ):
            self.metrics.counter(_name)
        #: ``None`` while healthy; the reason string once degraded.
        self.degraded: Optional[str] = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            # An uncreatable store must not take the caller down with
            # it: serving without a cache beats not serving.
            self._degrade(f"cache directory unusable: {exc}")

    # -- degradation ---------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        with self._lock:
            if self.degraded is None:
                self.degraded = reason

    # -- paths --------------------------------------------------------------

    def _path(self, key: str) -> str:
        if not _HEX_KEY.fullmatch(key):
            # Keys are hex digests; anything else would be a path
            # traversal vector when the key arrives over HTTP.
            raise ValueError(f"malformed cache key: {key!r}")
        return os.path.join(self.cache_dir, f"{key}.json")

    # -- core operations ----------------------------------------------------

    def get(self, key: str) -> Optional[CacheEntry]:
        """The :class:`CacheEntry` stored under ``key``, or ``None`` on a
        miss.

        Its ``encoded`` parts are the stored bytes (no part is decoded)
        and its ``answer`` is the header's copy of the result's answer
        fields.  A hit refreshes the entry's mtime (the LRU clock).  A
        present but unreadable entry — truncated write from a killed
        process, garbage bytes, a foreign document, a missing or
        mistyped answer field, fields or parts that fail the header's
        digest — is quarantined and counted as corrupt *and* a miss:
        callers always either get a valid entry or re-route.  An entry
        of another format version is a plain miss; an older one is also
        deleted.
        """
        started = time.perf_counter()
        with obs.span("cache.get", key=key[:16]) as sp:
            payload = self._get(key)
            sp.set(hit=payload is not None)
        self.metrics.observe(
            "repro_cache_get_seconds", time.perf_counter() - started
        )
        return payload

    def _get(self, key: str) -> Optional[CacheEntry]:
        path = self._path(key)
        spec = faults.decide("cache.read", key=key)
        if spec is not None and spec.mode == "garbage":
            # Corrupt the real on-disk entry, then read it normally:
            # the genuine validation + quarantine path is what's under
            # test, not a shortcut around it.
            try:
                with open(path, "r+b") as fh:
                    fh.write(b"\x00chaos\xff")
            except OSError:
                pass
        try:
            with open(path, "rb") as fh:
                try:
                    entry = _decode_entry(fh.read(), key)
                except StaleEntry as exc:
                    # Another format version: a plain miss.  An older
                    # entry (every entry of a store that predates an
                    # upgrade) is deleted rather than quarantined — the
                    # sidecar is neither counted against ``max_bytes``
                    # nor evicted, so a whole upgraded store would
                    # otherwise move into it.  A newer one is left alone.
                    if exc.version < CACHE_FORMAT_VERSION:
                        self._drop_stale(path, os.fstat(fh.fileno()))
                    self.metrics.inc("repro_cache_misses_total")
                    return None
        except FileNotFoundError:
            self.metrics.inc("repro_cache_misses_total")
            return None
        except (OSError, ValueError):
            # json.JSONDecodeError and a failed digest are ValueErrors.
            self._quarantine_corrupt(path)
            return None
        try:
            os.utime(path)
        except OSError:
            # A concurrent eviction or cleanup removed the file after we
            # read it; the payload in hand is still valid.
            pass
        self.metrics.inc("repro_cache_hits_total")
        return entry

    def put(
        self, key: str, payload: Union[Dict[str, Any], CacheEntry]
    ) -> Optional[str]:
        """Store ``payload`` under ``key``; returns the entry path, or
        ``None`` when the store is (or just became) degraded.

        A dict payload is encoded with :meth:`CacheEntry.of`; an entry
        is written as it is.  The answer fields of a ``result`` object go
        into the entry header (``ValueError`` when they have the wrong
        types: a status or board name that is not a string, an error
        that is not an object or ``None``).

        The temp file lives in the cache directory itself so the final
        ``os.replace`` is a same-filesystem atomic rename: concurrent
        writers of one key each publish a complete entry and the last
        rename wins — no reader ever sees a partial document.

        A failing write (``ENOSPC``, an unwritable directory) does
        *not* raise: it flips the store into degraded mode and the
        caller's request proceeds uncached — losing the cache must
        never lose the answer.
        """
        started = time.perf_counter()
        with obs.span("cache.put", key=key[:16]) as sp:
            path = self._put(key, payload)
            sp.set(stored=path is not None)
        self.metrics.observe(
            "repro_cache_put_seconds", time.perf_counter() - started
        )
        return path

    def publish(self, key: str, result: "RunResult", board: "Board") -> CacheEntry:
        """Encode one finished run and store it under ``key``.

        Returns the :class:`CacheEntry` of ``{"result", "routed_board"}``,
        the same one a later :meth:`get` returns: each part is encoded
        once, and its bytes are both stored and written into the
        caller's answer.  Ok and failed runs are deterministic verdicts
        and are stored; a crashed run is encoded but not stored — a crash
        may be transient (resources, a timeout, a killed worker), and
        caching it would pin the failure past its cause.
        """
        with obs.span("cache.encode", status=result.status):
            entry = CacheEntry.of(
                {
                    "result": run_result_to_dict(result),
                    "routed_board": board_to_dict(board),
                }
            )
        if result.status != "crashed":
            self.put(key, entry)
        return entry

    def _put(
        self, key: str, payload: Union[Dict[str, Any], CacheEntry]
    ) -> Optional[str]:
        path = self._path(key)
        if self.degraded is not None:
            return None
        entry = payload if isinstance(payload, CacheEntry) else CacheEntry.of(payload)
        if entry.answer is not None:
            _check_answer(entry.answer)
        data = _entry_bytes(key, entry)
        spec = faults.decide("cache.write", key=key)
        try:
            if spec is not None and spec.mode == "torn":
                # What a killed non-atomic writer leaves at the final
                # path: the first half of the document, no rename.
                with open(path, "wb") as fh:
                    fh.write(data[: len(data) // 2])
                return path
            if spec is not None and spec.mode == "garbage":
                with open(path, "wb") as fh:
                    fh.write(b"\x00not json\xff\xfe" * 4)
                return path
            if spec is not None and spec.mode == "enospc":
                raise OSError(errno.ENOSPC, "no space left on device (injected)")
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{key[:16]}.", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.metrics.inc("repro_cache_put_errors_total")
            self._degrade(f"cache write failed: {exc}")
            return None
        with self._lock:
            sweep = self._known_bytes is None
            if not sweep:
                # An overwritten key counts twice: the total only errs
                # high, which sweeps early.
                self._known_bytes += len(data)
                self._puts_since_sweep += 1
                sweep = (
                    self._known_bytes > self.max_bytes
                    or self._puts_since_sweep >= SWEEP_EVERY_PUTS
                )
        if sweep:
            self._evict_if_needed()
        return path

    def __contains__(self, key: str) -> bool:
        """Presence probe that does not touch the counters or the LRU
        clock (and does not validate the entry — use :meth:`get`)."""
        try:
            return os.path.exists(self._path(key))
        except ValueError:
            return False

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted.

        Quarantined files are evidence, not entries — they survive a
        ``clear()`` (delete the sidecar directory to drop them)."""
        removed = 0
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return removed
        for name in names:
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- bookkeeping --------------------------------------------------------

    def _drop_stale(self, path: str, read: os.stat_result) -> None:
        """Delete the older-format entry that was just read from ``path``
        (``read`` is its ``fstat``), but never an entry that a writer
        renamed into place after the read: the file is renamed aside
        first and put back when it is not the one that was read."""
        try:
            fd, aside = tempfile.mkstemp(
                prefix=".stale.", suffix=".tmp", dir=self.cache_dir
            )
            os.close(fd)
        except OSError:
            return  # left in place: the next put of the key replaces it
        try:
            os.replace(path, aside)
            moved = os.stat(aside)
            if (moved.st_dev, moved.st_ino) != (read.st_dev, read.st_ino):
                os.replace(aside, path)
        except OSError:
            pass
        finally:
            try:
                os.unlink(aside)
            except OSError:
                pass

    def _quarantine_corrupt(self, path: str) -> None:
        """Move a corrupt entry into the quarantine sidecar (falling
        back to deletion if even that fails) and count it as a miss."""
        quarantined = False
        qdir = os.path.join(self.cache_dir, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            quarantined = True
        except OSError:
            # A quarantine that cannot be written must still repair the
            # store: a corrupt entry left in place would be re-read
            # (and re-counted) on every probe of its key.
            try:
                os.unlink(path)
            except OSError:
                pass
        self.metrics.inc("repro_cache_corrupt_total")
        self.metrics.inc("repro_cache_misses_total")
        if quarantined:
            self.metrics.inc("repro_cache_quarantined_total")

    def _entries(self):
        """``(path, size, mtime)`` for every entry currently on disk.

        The quarantine sidecar does not participate: its files are not
        entries, don't count against ``max_bytes`` and are never
        evicted."""
        rows = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return rows
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # evicted/removed under us
            rows.append((path, st.st_size, st.st_mtime))
        return rows

    def _evict_if_needed(self) -> int:
        """LRU sweep: delete oldest-touched entries until the store fits
        ``max_bytes`` again; returns how many entries were evicted."""
        with self._lock:
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            self._known_bytes, self._puts_since_sweep = total, 0
            if total <= self.max_bytes:
                return 0
            evicted = 0
            for path, size, _ in sorted(entries, key=lambda row: row[2]):
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    # A concurrent evictor (another server thread, a
                    # second daemon on the same store) beat us to this
                    # entry: its bytes are gone either way — count the
                    # freed space, but the eviction is theirs, not ours.
                    total -= size
                    continue
                except OSError:
                    continue
                total -= size
                evicted += 1
            self._known_bytes = total
            if evicted:
                self.metrics.inc("repro_cache_evictions_total", evicted)
            return evicted

    def stats(self) -> Dict[str, Any]:
        """Counters plus the store's current on-disk footprint."""
        with self._lock:
            entries = self._entries()
            return {
                "cache_dir": os.path.abspath(self.cache_dir),
                "mode": "degraded" if self.degraded is not None else "ok",
                "degraded_reason": self.degraded,
                "entries": len(entries),
                "bytes": sum(size for _, size, _ in entries),
                "max_bytes": self.max_bytes,
                "hits": int(self.metrics.value("repro_cache_hits_total")),
                "misses": int(self.metrics.value("repro_cache_misses_total")),
                "evictions": int(
                    self.metrics.value("repro_cache_evictions_total")
                ),
                "corrupt": int(self.metrics.value("repro_cache_corrupt_total")),
                "quarantined": int(
                    self.metrics.value("repro_cache_quarantined_total")
                ),
                "put_errors": int(
                    self.metrics.value("repro_cache_put_errors_total")
                ),
            }


__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_KIND",
    "DEFAULT_MAX_BYTES",
    "QUARANTINE_DIR",
    "SWEEP_EVERY_PUTS",
    "CacheEntry",
    "ResultCache",
    "cache_key",
]
