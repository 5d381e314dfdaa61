"""Latency simulator for laser-linked LEO constellations vs. terrestrial fiber."""

__version__ = "0.1.0"
