"""Scriptweave: step libraries, grounded video sequences, path models,
and induced step graphs for procedural tasks."""

__version__ = "0.1.0"
