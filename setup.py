"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so an editable
install goes through setuptools directly:

    python setup.py develop --no-deps

All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
