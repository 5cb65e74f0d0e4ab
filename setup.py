"""Package metadata for the Lakeroad reproduction.

``pip install -e .`` puts the ``src/``-layout packages on the path (no
``PYTHONPATH=src`` needed) and installs the ``lakeroad`` console command.
"""

from setuptools import find_packages, setup

setup(
    name="lakeroad-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'FPGA Technology Mapping Using Sketch-Guided "
        "Program Synthesis' (ASPLOS 2024) in pure Python"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        "repro.vendor": ["models/*.v"],
        "repro.arch": ["descriptions/*.yml"],
    },
    include_package_data=True,
    entry_points={
        "console_scripts": [
            "lakeroad = repro.cli:main",
        ],
    },
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
