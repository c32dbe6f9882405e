"""Legacy setup shim.

The execution environment has no ``wheel`` package available, so PEP 517
editable installs (which build a wheel) fail.  This shim lets
``pip install -e . --no-build-isolation`` fall back to the classic
``setup.py develop`` path.  There is no ``pyproject.toml`` and no metadata:
the tests and the benchmark run from the checkout with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
