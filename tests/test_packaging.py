"""The package metadata in ``pyproject.toml`` is real and consistent."""

import ast
import os
import re
import sys
import warnings

from setuptools.config.pyprojecttoml import read_configuration

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pyproject_declares_the_package():
    with warnings.catch_warnings():
        # setuptools flags [tool.setuptools] support as beta on some versions.
        warnings.simplefilter("ignore")
        config = read_configuration(os.path.join(ROOT, "pyproject.toml"))
    project = config["project"]
    assert project["name"] == "repro"
    # region assignment imports scipy.optimize at its first LP solve
    # and the extension loop numpy at module level; both are hard
    # dependencies.
    assert {"numpy", "scipy"} <= set(project["dependencies"])
    assert project["version"] == repro.__version__


def _requirement_names(path):
    """Distribution names in a requirements file, normalised to the
    import-name spelling (lower case, ``-`` as ``_``)."""
    names = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                name = re.split(r"[\s<>=!~;\[]", line, maxsplit=1)[0]
                names.add(name.lower().replace("-", "_"))
    return names


def _top_level_imports(path):
    """Top-level module names of the absolute imports in one file."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_ci_requirements_name_every_third_party_test_import():
    # The tier-1 job installs requirements-ci.txt and nothing else, so a
    # test module importing anything missing from it fails to collect.
    tests = os.path.join(ROOT, "tests")
    local = set()  # test-local modules and packages (conftest, oracles, ...)
    sources = []
    for dirpath, dirnames, filenames in os.walk(tests):
        local.update(dirnames)
        for name in filenames:
            if name.endswith(".py"):
                local.add(name[:-3])
                sources.append(os.path.join(dirpath, name))
    imported = {}
    for path in sources:
        for module in _top_level_imports(path):
            imported.setdefault(module, os.path.relpath(path, ROOT))
    third_party = {
        module: path
        for module, path in imported.items()
        if module not in sys.stdlib_module_names
        and module not in local
        and module != "repro"
    }
    assert {"numpy", "pytest", "hypothesis"} <= set(third_party)
    declared = _requirement_names(os.path.join(ROOT, "requirements-ci.txt"))
    missing = {m: p for m, p in third_party.items() if m.lower() not in declared}
    assert not missing, f"imported by tests but not in requirements-ci.txt: {missing}"
