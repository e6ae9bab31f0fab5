"""Exact integer arithmetic helpers.

Everything in the dependence analyzer runs on exact integer arithmetic
(Fourier-Motzkin's rational range ends are integer ratios).  This module collects the
number-theoretic primitives shared by the tests: gcds, extended gcds,
and exact ceiling/floor division.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "gcd",
    "gcd_all",
    "extended_gcd",
    "floor_div",
    "ceil_div",
    "divides",
    "lcm",
]


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; ``gcd(0, 0) == 0`` by convention."""
    return math.gcd(a, b)


def gcd_all(values: Iterable[int]) -> int:
    """Gcd of an arbitrary collection of integers (0 for an empty one)."""
    result = 0
    for value in values:
        result = math.gcd(result, value)
        if result == 1:
            break
    return result


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.

    ``g`` is always non-negative, matching :func:`math.gcd`.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def floor_div(a: int, b: int) -> int:
    """Floor of ``a / b`` for any non-zero ``b`` (sign-correct)."""
    if b == 0:
        raise ZeroDivisionError("floor_div by zero")
    if b < 0:
        a, b = -a, -b
    return a // b


def ceil_div(a: int, b: int) -> int:
    """Ceiling of ``a / b`` for any non-zero ``b`` (sign-correct)."""
    if b == 0:
        raise ZeroDivisionError("ceil_div by zero")
    if b < 0:
        a, b = -a, -b
    return -((-a) // b)


def divides(d: int, n: int) -> bool:
    """True iff ``d`` divides ``n``; ``0`` divides only ``0``."""
    if d == 0:
        return n == 0
    return n % d == 0


def lcm(a: int, b: int) -> int:
    """Least common multiple; ``lcm(0, x) == 0``."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)
