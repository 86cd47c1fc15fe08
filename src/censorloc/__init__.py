"""Localize network censorship to autonomous systems.

Turns anomaly detections plus traceroutes into boolean constraint systems
over ASes, solves them, and reports which ASes must (or may) be interfering,
how stable the underlying paths are, and where censorship leaks across
borders.
"""

__version__ = "0.1.0"
