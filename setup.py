"""Setuptools entry point.

This file holds the project metadata (there is no pyproject.toml), so the
package installs with ``pip install -e .`` in offline environments that lack
the ``wheel`` package required by PEP 517 editable builds. README.md describes
the package; bench/README.md the repo benchmark.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of CompilerGym: Robust, Performant Compiler Optimization "
        "Environments for AI Research (CGO 2022)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "networkx"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro-compilergym=repro.cli.main:main"]},
)
