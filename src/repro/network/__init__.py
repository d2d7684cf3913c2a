"""Web request, header and cookie models.

Callers import from the modules (cookies, headers, request); the package
re-exports nothing, so importing one module does not load the others.
"""
