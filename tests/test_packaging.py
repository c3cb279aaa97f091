"""The package metadata: ``setup.py`` must find the src-layout project.

``setup.py`` is a shim over ``pyproject.toml``; without the latter,
setuptools reports the project as ``UNKNOWN`` and an install ships no
packages.  The checks run setuptools itself (skipped where the
interpreter has no setuptools new enough to read ``[project]``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytest.importorskip("setuptools", minversion="61")


def _setup(*args: str) -> str:
    completed = subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout.strip()


def test_setup_reports_the_project_name_and_version():
    import repro

    assert _setup("--name").splitlines()[-1] == "repro"
    assert _setup("--version").splitlines()[-1] == repro.__version__


def test_metadata_ships_the_src_packages_and_cat_models(tmp_path):
    _setup("-q", "egg_info", "--egg-base", str(tmp_path))
    (info,) = tmp_path.glob("*.egg-info")
    assert (info / "top_level.txt").read_text().split() == ["repro"]
    sources = (info / "SOURCES.txt").read_text().split()
    assert "src/repro/service/app.py" in sources
    assert "src/repro/cat/models/power.cat" in sources
