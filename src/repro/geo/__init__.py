"""Synthetic IP / ASN / geolocation / timezone substrate.

Callers import from the modules (asn, geolite, ipaddr, timezones); the package
re-exports nothing, so importing one module does not load the others.
"""
