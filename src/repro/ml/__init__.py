"""From-scratch tree learners, encoders, metrics and explainability.

Callers import from the modules (encoding, explain, forest, metrics, tree); the package
re-exports nothing, so importing one module does not load the others.
"""
