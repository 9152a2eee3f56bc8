"""Design rules of the truncated oscillator, written from the paper, not from susyq.

The benchmark derives from these the outcome each plan must have: which
rules it breaks, which energies it adds and the spectrum of its partner.
"""

from __future__ import annotations

import math

GROUND = 1.5  # lowest level of the truncated oscillator
RULE_FAMILIES = ("interval.mixed", "interval.boundary", "order.odd-above-E0", "parity.mismatch")


def interval_of(e: float) -> tuple[str, int]:
    """Class and index of the open interval holding e (A0 = (-inf, 1/2), B0 = (1/2, 3/2), ...)."""
    if e < 0.5:
        return ("A", 0)
    j = math.floor(e - 0.5)
    return ("B", j // 2) if j % 2 == 0 else ("A", (j + 1) // 2)


def rule_parities(k: int, kind: str) -> list[int]:
    """Alternating seed parities, the last one even in class A and odd in class B."""
    last = 1 if kind == "A" else -1
    return [last * (-1) ** (k - j) for j in range(1, k + 1)]


def derived_violations(eps, parities) -> set[str]:
    """Rule ids a plan breaks, from the interval, parity and odd-order rules."""
    found = set()
    classes = {interval_of(e) for e in eps}
    if len(classes) > 1:
        found.add("interval.mixed")
    elif eps and list(parities) != rule_parities(len(eps), classes.pop()[0]):
        found.add("parity.mismatch")
    if len(eps) % 2 == 1 and max(eps) > GROUND:
        found.add("order.odd-above-E0")
    return found


def expected_added(eps, kind: str) -> list[tuple[int, float]]:
    """The floor(k/2) energies a valid plan adds: every other seed, starting at the second
    (even k in class A, and every odd k) or at the first (even k in class B)."""
    k = len(eps)
    first = 1 if (k % 2 == 0 and kind == "B") else 2
    return [(j, eps[j - 1]) for j in range(first, k + 1, 2)]


def expected_spectrum(eps, kind: str, count: int) -> list[float]:
    """Lowest `count` levels of a valid partner: added levels plus the surviving branch.

    An odd-order class-A transformation moves the isospectral branch from
    2n + 3/2 to 2n + 1/2; every other valid plan keeps 2n + 3/2.
    """
    base = 0.5 if (len(eps) % 2 == 1 and kind == "A") else GROUND
    levels = [e for _, e in expected_added(eps, kind)] + [base + 2 * n for n in range(count)]
    return sorted(levels)[:count]
