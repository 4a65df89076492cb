"""Shim so `pip install -e .`/`setup.py develop` works without the wheel package."""
from setuptools import setup

setup(python_requires=">=3.11")  # api/spec.py reads TOML with tomllib
