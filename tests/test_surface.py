"""Every def in ``src/repro`` is reached from the shipped code.

An AST scan in the manner of ``test_packaging.py``: a function or method
defined under ``src/repro`` must be referenced somewhere in ``src/``,
``examples/`` or ``benchmarks/`` outside its own body.  A reference is a
bare name, an attribute of that name, or the name as a string constant
(``getattr`` / dispatch tables).  Imports and ``__all__`` entries are
re-exports, not uses, and a reference from inside a def that is itself
unreferenced does not count, so dead call chains are found whole.

Names are matched, not resolved: any ``.run`` keeps every ``run``
method alive, so the scan can miss dead code.  What it reports has no
caller in the shipped trees; a def that only the standard library or
the tests call needs an :data:`ALLOWED` entry with its reason, and any
other is a def to delete.
"""

import ast
import functools
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "examples", "benchmarks")

#: Defs kept without a caller in the scanned trees, keyed
#: ``path::Qualified.name`` with the one-line reason.
ALLOWED = {
    # Called by the standard library's HTTP server, by name.
    "src/repro/server/app.py::_make_handler_class.Handler.do_GET":
        "BaseHTTPRequestHandler dispatches GET here",
    "src/repro/server/app.py::_make_handler_class.Handler.do_POST":
        "BaseHTTPRequestHandler dispatches POST here",
    "src/repro/server/app.py::_make_handler_class.Handler.log_message":
        "BaseHTTPRequestHandler hook; silences the access log",
    "src/repro/io.py::load_result":
        "public API: reads back a saved run result",
    # Certification checks the DRC gate will name rule by rule.
    "src/repro/drc/checker.py::check_endpoints_preserved":
        "certification check: pins stay where they were",
    "src/repro/drc/checker.py::check_pair_coupling":
        "certification check: pairs stay coupled",
    # Helpers the test suite and its oracles build on.
    "src/repro/geometry/transform.py::Frame.polygon_to_local":
        "the extension oracle's per-polygon frame transform",
    "src/repro/geometry/polygon.py::Polygon.intersects_polygon":
        "test predicate for polygon overlap",
    "src/repro/geometry/polyline.py::Polyline.node_angles":
        "test predicate for any-direction corners",
    "src/repro/model/group.py::MatchGroup.is_matched":
        "test predicate for a matched group",
    "src/repro/geometry/transform.py::Frame.identity":
        "test fixture frame",
    "src/repro/geometry/polygon.py::Polygon.is_convex":
        "test predicate for convex hulls",
    "src/repro/geometry/polyline.py::Polyline.min_segment_length":
        "test predicate for degenerate generator output",
    "src/repro/geometry/polyline.py::polyline_from_pairs":
        "test constructor for polylines",
    "src/repro/geometry/ops.py::cells_union_boundary":
        "single-union form the union oracle is compared against",
    "src/repro/core/pattern.py::chain_new_segments":
        "the extension oracle's requeue filter",
    "src/repro/region/decompose.py::Decomposition.neighbours":
        "per-trace view the region oracle compares",
    "src/repro/region/decompose.py::Decomposition.distances":
        "per-pair view the region oracle compares",
    "src/repro/drc/violations.py::DrcReport.of_kind":
        "test filter over DRC findings",
    "src/repro/obs/metrics.py::Histogram.quantiles":
        "test read-back of histogram windows",
    "src/repro/obs/metrics.py::MetricsRegistry.reset":
        "test isolation between registry cases",
    "src/repro/faults/invariants.py::stable_report_bytes":
        "chaos suite's byte comparison of reports",
    "src/repro/io.py::load_corpus_report":
        "read-back of the corpus report the CLI writes",
    "src/repro/core/router.py::LengthMatchingRouter.match_trace":
        "single-trace entry point outside any group",
    "src/repro/core/router.py::LengthMatchingRouter.match_pair":
        "single-pair entry point outside any group",
}


def _sources():
    for top in SCANNED:
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, top)):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, "r", encoding="utf-8") as fh:
                        yield os.path.relpath(path, ROOT), ast.parse(fh.read())


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


@functools.lru_cache(maxsize=None)
def _scan():
    """``(defs, refs)``: every def under ``src/repro`` as ``(key, name,
    node id)``, and every reference as ``(name, ids of the enclosing
    defs)``."""
    defs, refs = [], []

    def visit(node, path, qual, stack):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) or _is_all(child):
                continue
            child_qual, child_stack = qual, stack
            if isinstance(child, ast.ClassDef):
                child_qual = qual + [child.name]
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_qual = qual + [child.name]
                child_stack = stack + (id(child),)
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if path.startswith("src/repro/") and not dunder:
                    key = f"{path}::{'.'.join(child_qual)}"
                    defs.append((key, child.name, id(child)))
            elif isinstance(child, ast.Name):
                refs.append((child.id, stack))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, stack))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child.value.isidentifier():
                    refs.append((child.value, stack))
            visit(child, path, child_qual, child_stack)

    trees = list(_sources())  # kept alive so node ids stay unique
    for path, tree in trees:
        visit(tree, path.replace(os.sep, "/"), [], ())
    return defs, refs


def unreferenced(allowed=ALLOWED):
    """Keys of the defs nothing live refers to; ``allowed`` defs count
    as live roots."""
    defs, refs = _scan()
    by_name = {}
    for name, stack in refs:
        by_name.setdefault(name, []).append(stack)
    dead = set()  # node ids
    while True:
        found = set()
        for key, name, node in defs:
            if node in dead or key in allowed:
                continue
            live = any(
                node not in stack and not dead.intersection(stack)
                for stack in by_name.get(name, ())
            )
            if not live:
                found.add(node)
        if not found:
            break
        dead |= found
    return sorted(key for key, _, node in defs if node in dead)


def test_every_def_has_a_caller():
    assert unreferenced() == []


def test_allowlist_names_real_unreferenced_defs():
    # A stale entry would let a later dead def of the same key slip by,
    # and an entry that gained a caller is no longer an exception.
    defs, _ = _scan()
    keys = {key for key, _, _ in defs}
    assert sorted(set(ALLOWED) - keys) == []
    for key in ALLOWED:
        rest = {k: v for k, v in ALLOWED.items() if k != key}
        assert key in unreferenced(rest), f"{key} has a caller now"
