"""The package version has a single source: ``repro.__version__``."""

import os
import warnings

import pytest

import repro

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_pyproject_version_is_read_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # Older setuptools flag [tool.setuptools] tables as beta.
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT)
    project = config["project"]
    assert "version" in project.get("dynamic", ()), "pyproject.toml pins a second version"
    assert project["version"] == repro.__version__
