from functools import lru_cache

import pytest

from cyclomat import CycloCtx, build_field

_FIELDS = {}
_CONTEXTS = {}


def field_of(p, n=1):
    key = (p, n)
    if key not in _FIELDS:
        _FIELDS[key] = build_field(p, n)
    return _FIELDS[key]


@lru_cache(maxsize=None)
def odd_prime_power(q):
    """(p, n) with q = p^n for an odd prime p, or None, from sympy's
    factorint: an oracle that shares no primality test with the package."""
    from sympy import factorint

    if q < 3:
        return None
    (p, n), *rest = factorint(q).items()
    return None if rest or p == 2 else (int(p), int(n))


def context_of(p, n, ell):
    key = (p, n, ell)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = CycloCtx(field_of(p, n), ell)
    return _CONTEXTS[key]


@pytest.fixture(scope="session")
def fields():
    return field_of


@pytest.fixture(scope="session")
def cyclo():
    return context_of
