"""Closed forms for the rad^power algebra on the n-cycle, against which the
built resolution quivers and relation complexes are checked."""

import math


def rad_power_closed_form(n, power):
    """(component count, weight) of the resolution quiver of the rad^power
    algebra on the n-cycle: (gcd(n, power), power / gcd(n, power))."""
    if n < 2 or power < 1:
        raise ValueError("need n >= 2 and power >= 1")
    g = math.gcd(n, power)
    return g, power // g


def rad_power_euler(n, power):
    """Euler characteristic of the relation complex of the rad^power algebra:
    `power` when it divides n, and 0 otherwise."""
    if n < 2 or power < 1:
        raise ValueError("need n >= 2 and power >= 1")
    return power if n % power == 0 else 0
