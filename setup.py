"""Packaging for the reproduction toolkit.

``pip install -e .`` gives CI (and users) the ``repro`` package from the
``src/`` layout plus the ``repro`` console script, with no ``PYTHONPATH``
workaround.  Metadata lives here rather than in ``pyproject.toml`` so the
pinned setuptools in minimal environments can still build the project;
``pyproject.toml`` only declares the build system and lint configuration.
"""

from setuptools import find_packages, setup

setup(
    name="repro-fp-inconsistent",
    version="0.2.0",
    description=(
        "Reproduction of the FP-Inconsistent honey-site measurement study: "
        "bot-traffic corpus engine, anti-bot detector models and analyses"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
    ],
    extras_require={
        "test": ["pytest>=8"],
        "lint": ["ruff>=0.4"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Security",
        "Topic :: Scientific/Engineering",
    ],
)
