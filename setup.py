"""Setuptools entry point for the ``repro`` package (sources under ``src/``).

``pip install .`` (or ``pip install -e .``) installs the package with its
runtime dependencies: NumPy, under the columnar kernel's vectorised
operators and the fractional edge-cover LP, and SciPy, whose ``linprog``
solves that LP.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy"],
)
