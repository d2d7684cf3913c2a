"""Bot services: evasion strategies, calibrated profiles, traffic engine.

Callers import from the modules (marketplace, service, strategies, traffic); the package
re-exports nothing, so importing one module does not load the others.
"""
