"""Persistent clearance scene for the extension engine.

The extension loop asks, per iteration, "which foreign geometry can the
candidate meander touch?" — and the seed implementation answered it by
scanning every obstacle and every segment of every other
trace each time, constructing fresh inflated hulls and clearance
rectangles for every hit.  :class:`ClearanceScene` builds that answer's
index once per board: obstacle bounding boxes and other-trace segment
boxes live in flat numpy arrays, per-inflation obstacle hulls and
per-half-width segment rectangles are cached after their first use, and a
window query is a single vectorized bbox mask over the box arrays.

(A first cut used a uniform-grid spatial hash as the prefilter; the
extension bench's upper-bound runs query whole-board windows, where
walking every grid cell costs more than one flat vectorized mask over
all boxes — so the mask *is* the index.  The DRC likewise filters with
plain numpy box arithmetic: one sort-and-sweep over every segment and
obstacle box, see :mod:`repro.drc.checker`.)

The scene is *exact*, not approximate: the mask evaluates the very float
comparisons the exhaustive scan's bounding-box test did, so it selects
the same polygons in the same order (area handling stays with the
extender; obstacles in board order; trace segments in registration
order).  ``tests/core/test_scene.py`` pins this equivalence.

The scene is also the extender's only board context.  Its registration
rule — board traces in order, then each pair's two sub-traces owned by
the pair — lives in :meth:`ClearanceScene.from_board`, and a member
masks its own entries per query by name.  The scene outlives a single
extension: the router builds one per board and calls
:meth:`update_trace` as members get rerouted, so later members of a
matching group query updated neighbours without any rebuild beyond
re-concatenating the box arrays.

Coordinates are also kept as numpy arrays so a window query can hand the
extension loop ``(k, 2)`` blocks ready for the batched local-frame
transform — the feed of :class:`~repro.core.shrink.ShrinkEnvironment`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..geometry import oriented_rectangle
from ..model import Board, Obstacle, Trace


class _TraceEntry:
    """One registered trace: its segments plus per-width caches."""

    __slots__ = ("name", "owner", "width", "segments", "seg_bounds", "_rects")

    def __init__(self, name: str, owner: Optional[str], trace: Trace):
        self.name = name
        self.owner = owner
        self.load(trace)

    def load(self, trace: Trace) -> None:
        self.width = trace.width
        self.segments = trace.segments()
        self.seg_bounds = [s.bounds() for s in self.segments]
        # half-width -> per-segment rectangle corner arrays; one entry per
        # distinct querying d_gap (usually exactly one).
        self._rects: Dict[float, List[Optional[object]]] = {}

    def rect_pts(self, si: int, half: float):
        """Corner array of ``oriented_rectangle(seg, half)`` (cached)."""
        rows = self._rects.get(half)
        if rows is None:
            rows = [None] * len(self.segments)
            self._rects[half] = rows
        pts = rows[si]
        if pts is None:
            poly = oriented_rectangle(self.segments[si], half)
            pts = np.array([(p.x, p.y) for p in poly.points])
            rows[si] = pts
        return pts


class ClearanceScene:
    """Vectorized, mutable board context for trace extension.

    ``obstacles`` is board context shared by every query; traces register
    via :meth:`add_trace` (:meth:`from_board` registers a whole board)
    and update in place via :meth:`update_trace`.  The extended member
    itself is excluded per query by name.
    """

    def __init__(self, obstacles: Sequence[Obstacle] = ()):
        self.obstacles = list(obstacles)
        self._entries: List[_TraceEntry] = []
        self._entry_by_name: Dict[str, int] = {}
        # Obstacle boxes never change: one (M, 4) array for the lifetime.
        self._ob_bounds = (
            np.array([o.bounds() for o in self.obstacles])
            if self.obstacles
            else np.empty((0, 4))
        )
        # (obstacle, inflation) -> inflated hull as a (k, 2) array.
        self._inflated: Dict[Tuple[int, float], object] = {}
        # Concatenated per-segment arrays over all entries, rebuilt lazily
        # after registrations/updates (_dirty).
        self._dirty = True
        self._seg_bounds = None   # (N, 4)
        self._seg_entry = None    # (N,) entry index
        self._seg_index = None    # (N,) segment index within its entry
        self._seg_width = None    # (N,) owning trace width
        self._seg_degen = None    # (N,) bool, degenerate segments
        # exclude-set -> (N,) bool mask of masked-out rows.
        self._exclude_masks: Dict[FrozenSet[str], object] = {}

    # -- registration --------------------------------------------------------------

    def add_trace(self, trace: Trace, owner: Optional[str] = None) -> int:
        """Register a context trace; returns its (stable) entry index.

        ``owner`` names the differential pair a sub-trace belongs to, so
        excluding the pair name excludes both sub-traces.
        """
        if trace.name in self._entry_by_name:
            raise ValueError(f"trace {trace.name!r} already registered")
        entry = _TraceEntry(trace.name, owner, trace)
        index = len(self._entries)
        self._entries.append(entry)
        self._entry_by_name[trace.name] = index
        self._dirty = True
        return index

    def update_trace(self, trace: Trace) -> None:
        """Swap in a rerouted trace under the same entry slot.

        Unknown names are ignored — the scene only tracks what was
        registered (a board may gain unrelated copper later).
        """
        index = self._entry_by_name.get(trace.name)
        if index is None:
            return
        self._entries[index].load(trace)
        self._dirty = True

    def _rebuild(self) -> None:
        bounds: List[Tuple[float, float, float, float]] = []
        entry_idx: List[int] = []
        seg_idx: List[int] = []
        widths: List[float] = []
        degen: List[bool] = []
        # The rebuild re-walks every entry after each update, so its cost
        # grows with the board per update; the span makes that visible.
        with obs.span("scene.rebuild") as sp:
            for ei, entry in enumerate(self._entries):
                for si, seg in enumerate(entry.segments):
                    bounds.append(entry.seg_bounds[si])
                    entry_idx.append(ei)
                    seg_idx.append(si)
                    widths.append(entry.width)
                    degen.append(seg.is_degenerate())
            n = len(bounds)
            sp.set(segments=n)
            self._seg_bounds = np.array(bounds) if n else np.empty((0, 4))
            self._seg_entry = np.array(entry_idx, dtype=np.intp)
            self._seg_index = np.array(seg_idx, dtype=np.intp)
            self._seg_width = np.array(widths)
            self._seg_degen = np.array(degen, dtype=bool)
            self._exclude_masks.clear()
            self._dirty = False

    def _exclude_mask(self, exclude: FrozenSet[str]):
        mask = self._exclude_masks.get(exclude)
        if mask is None:
            excluded = np.array(
                [
                    entry.name in exclude
                    or (entry.owner is not None and entry.owner in exclude)
                    for entry in self._entries
                ],
                dtype=bool,
            )
            mask = excluded[self._seg_entry]
            self._exclude_masks[exclude] = mask
        return mask

    # -- queries -------------------------------------------------------------------

    def _inflated_obstacle(self, idx: int, inflation: float):
        """Corner array of ``obstacles[idx].inflated(inflation)`` (cached)."""
        key = (idx, inflation)
        pts = self._inflated.get(key)
        if pts is None:
            poly = self.obstacles[idx].inflated(inflation)
            pts = np.array([(p.x, p.y) for p in poly.points])
            self._inflated[key] = pts
        return pts

    def _obstacle_hits(self, window):
        """Obstacle indices hitting ``window``, in board order.

        The mask evaluates the exhaustive scan's exact test,
        ``_bbox_hits(obstacle.bounds(), window)``, elementwise.
        """
        b = self._ob_bounds
        if not len(b):
            return ()
        hit = (
            (b[:, 0] <= window[2])
            & (window[0] <= b[:, 2])
            & (b[:, 1] <= window[3])
            & (window[1] <= b[:, 3])
        )
        return np.nonzero(hit)[0]

    def _segment_hits(
        self, window, dgap: float, exclude: FrozenSet[str], degenerate: bool = False
    ):
        """(entry, segment, half) triplets hitting ``window``, in
        registration order — exactly the segments the exhaustive scan
        would rectangle (its test: ``_bbox_hits(_inflate_bounds(
        seg.bounds(), half), window)`` on non-degenerate segments of
        non-excluded traces).  ``degenerate`` keeps zero-length rows."""
        if self._dirty:
            self._rebuild()
        b = self._seg_bounds
        if not len(b):
            return ()
        half = (self._seg_width + dgap) / 2.0
        hit = (
            (b[:, 0] - half <= window[2])
            & (window[0] <= b[:, 2] + half)
            & (b[:, 1] - half <= window[3])
            & (window[1] <= b[:, 3] + half)
        )
        if not degenerate:
            hit &= ~self._seg_degen
        if exclude:
            hit &= ~self._exclude_mask(exclude)
        idx = np.nonzero(hit)[0]
        return [
            (int(self._seg_entry[i]), int(self._seg_index[i]), float(half[i]))
            for i in idx
        ]

    def collect_window(
        self,
        chunks: List[object],
        sizes: List[int],
        window,
        dgap: float,
        inflation: float,
        exclude: FrozenSet[str] = frozenset(),
    ) -> None:
        """Append the window's world-polygon coordinate blocks.

        ``chunks`` receives ``(k, 2)`` arrays, ``sizes`` the per-polygon
        vertex counts — obstacles first (board order), then other-trace
        clearance rectangles (registration order), matching the
        exhaustive scan's polygon order exactly.
        """
        for idx in self._obstacle_hits(window):
            pts = self._inflated_obstacle(int(idx), inflation)
            chunks.append(pts)
            sizes.append(len(pts))
        for ei, si, half in self._segment_hits(window, dgap, exclude):
            chunks.append(self._entries[ei].rect_pts(si, half))
            sizes.append(4)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_board(cls, board: Board) -> "ClearanceScene":
        """Everything on ``board`` a member may have to clear: its
        obstacles, its traces in board order, then each pair's
        ``trace_p`` and ``trace_n`` owned by the pair."""
        scene = cls(board.obstacles)
        for trace in board.traces:
            scene.add_trace(trace)
        for pair in board.pairs:
            scene.add_trace(pair.trace_p, owner=pair.name)
            scene.add_trace(pair.trace_n, owner=pair.name)
        return scene
