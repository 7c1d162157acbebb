"""Legacy setup shim.

The offline build environment lacks the ``wheel`` package, so PEP 660
editable installs fail; this shim lets ``pip install -e .`` fall back to
``setup.py develop``. All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
