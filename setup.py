"""Legacy setup shim.

The reproduction environment has no network access and no ``wheel``
package, so PEP 517/660 builds are unavailable; this setup.py lets
``pip install -e .`` take the legacy editable-install path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    description=(
        "CRoCCo v2.0 reproduction: curvilinear AMR CFD with simulated "
        "GPU/Summit substrates"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # the compiled WENO row kernel is built from source on first use: an
    # installed copy without the .c file would run the NumPy path forever
    package_data={"repro.numerics": ["*.c"]},
    install_requires=["numpy>=1.23"],
    # scipy is the reference ODE solve of the chemistry tests only
    extras_require={"test": ["scipy>=1.9", "pytest", "pytest-benchmark",
                             "hypothesis"]},
)
