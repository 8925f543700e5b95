"""Probabilistic admission control, seeded scheduling simulation and runtime
monitoring for hard real-time tasks packed onto shared CPUs."""

__version__ = "0.1.0"
