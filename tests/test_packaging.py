"""The package metadata in ``pyproject.toml`` is real and consistent."""

import os
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
    # region assignment imports scipy.optimize and the extension loop
    # numpy at module level, so both are hard dependencies.
    assert {"numpy", "scipy"} <= set(project["dependencies"])
    assert project["version"] == repro.__version__
