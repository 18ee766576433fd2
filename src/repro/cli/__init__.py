"""Command-line interface (``repro-agu`` / ``python -m repro.cli``).

The entry point is :func:`repro.cli.main.main`; it is not imported
here, so ``python -m repro.cli.main`` runs its module exactly once.
"""
