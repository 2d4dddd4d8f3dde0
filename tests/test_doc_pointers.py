"""Every Markdown file the code points readers at must exist.

Docstrings and comments in ``src/``, ``benchmarks/`` and ``examples/``
cite documents such as ``PERFORMANCE.md``; a citation of a file that is
not in the repository sends the reader nowhere.  A bare name resolves
against the repository root or the citing file's directory.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks", "examples")
MD_NAME = re.compile(r"[A-Za-z0-9_./-]+\.md\b")


def cited_markdown():
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, start=1):
                        for match in MD_NAME.finditer(line):
                            yield path, lineno, match.group(0)


def test_every_cited_markdown_file_exists():
    citations = list(cited_markdown())
    assert citations, "the scan found no citations at all"
    missing = []
    for path, lineno, cited in citations:
        candidates = (
            os.path.join(ROOT, cited),
            os.path.join(os.path.dirname(path), cited),
        )
        if not any(os.path.isfile(c) for c in candidates):
            missing.append(f"{os.path.relpath(path, ROOT)}:{lineno}: {cited}")
    assert not missing, "dangling Markdown pointers:\n" + "\n".join(missing)

