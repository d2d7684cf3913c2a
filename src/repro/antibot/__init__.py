"""Anti-bot detector models (DataDome-like and BotD-like).

Callers import from the modules (base, botd, datadome, signals); the package
re-exports nothing, so importing one module does not load the others.
"""
