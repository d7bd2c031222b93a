"""Setup shim.

Package metadata lives in ``pyproject.toml``; this file keeps
``pip install -e .`` working on minimal offline environments whose
setuptools cannot build PEP 660 editable wheels (no ``wheel`` package), and
declares the ``repro`` console entry point for such installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ooova",
    version="0.3.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
