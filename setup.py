"""Package metadata for the ``repro`` reproduction.

Metadata lives here rather than in a ``pyproject.toml``: the offline
build environment lacks the ``wheel`` package, so ``pip`` cannot build
PEP 660 editable wheels, and this file lets ``pip install -e .`` fall
back to the classic ``setup.py develop`` path.  ``version`` below is
the one place the package version lives.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description="Reproduction of RED: A ReRAM-based Deconvolution Accelerator (DATE 2019)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
