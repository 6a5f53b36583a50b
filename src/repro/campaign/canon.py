"""Canonical float handling for digests and cross-host transport.

Premium fractions and shock sizes are float-valued axes: they are rendered
into scenario schedule labels, hashed into matrix/run/frontier digests, and
round-tripped through JSON between shard hosts.  Refined (bisected)
premium values make this delicate — ``(lo + hi) / 2`` produces floats whose
textual form must not depend on how a value was reached, which formatting
call rendered it, or which platform printed it.  Everything float-facing
goes through this module so there is exactly one canonicalization point:

- :func:`canon_float` pins the *value*: coerce to an IEEE-754 double and
  collapse ``-0.0`` to ``0.0`` (the sign bit would otherwise leak into
  digests through ``repr`` while comparing equal everywhere else),
- :func:`fmt_fraction` pins the *text*: Python's shortest round-tripping
  ``repr`` (identical for a given double on every supported platform),
  with the trailing ``.0`` of whole numbers stripped so axis labels read
  ``"0"``/``"2"`` rather than ``"0.0"``/``"2.0"``.

The old ablation-axis rendering used ``format(value, "g")``, which is
*lossy* past six significant digits: two distinct bisected premiums could
collide onto one axis label (and therefore one digest) while producing
different runs.  ``repr`` is exact, so distinct doubles always get
distinct labels.
"""

from __future__ import annotations

import math


def canon_float(value: float | int | str) -> float:
    """Normalize a number for digest/transport use.

    Coerces to ``float`` and collapses negative zero to positive zero;
    every other finite value (including the result of any bisection
    arithmetic) is already a canonical IEEE-754 double.  Non-finite values
    are rejected: ``json.dumps`` would emit the non-standard ``NaN`` /
    ``Infinity`` tokens, which strict parsers on other hosts refuse — a
    NaN axis or metric must fail at the source, not poison a report
    round-trip later.  An integer too large for a double is rejected the
    same way.
    """
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"non-finite value {value!r} has no canonical form: digests "
            "and JSON transport require finite floats"
        )
    if value == 0.0:  # catches -0.0 too: they compare equal
        return 0.0
    return value


def canon_opt(value: float | int | str | None) -> float | None:
    """:func:`canon_float` with ``None`` passthrough, for optional fields
    (e.g. an undeterred row's ``pi_star``) feeding digests or JSON."""
    return None if value is None else canon_float(value)


def fmt_fraction(value: float | int | str) -> str:
    """Canonical text for a fraction axis: exact, shortest, repr-stable.

    ``0.025`` → ``"0.025"``, ``0.0`` → ``"0"``, ``-0.0`` → ``"0"``,
    ``0.0328125`` → ``"0.0328125"``; distinct doubles never collide.

    ``repr`` switches to scientific notation below 1e-4 (``repr(1e-05)``
    is ``"1e-05"``), which deeply-bisected premiums reach; those are
    re-rendered in fixed point (``"0.00001"``) so axis labels never mix
    decimal and exponent forms across a grid.  The rewrite shifts the
    exact repr digits, so it is value-preserving and injective: the label
    still parses back (``float``) to the identical double.
    """
    text = repr(canon_float(value))
    if "e" in text:
        return _fixed_point(text)
    if text.endswith(".0"):
        text = text[:-2]
    return text


def _fixed_point(text: str) -> str:
    """Rewrite a ``repr`` scientific-notation float in fixed point.

    The mantissa digits are repr's shortest round-tripping digits; moving
    the decimal point by the exponent re-renders the same decimal value,
    so distinct doubles keep distinct labels (no digits are dropped).
    """
    mantissa, _, exp = text.partition("e")
    exponent = int(exp)
    sign = ""
    if mantissa.startswith("-"):
        sign, mantissa = "-", mantissa[1:]
    whole, _, frac = mantissa.partition(".")
    digits = whole + frac
    point = len(whole) + exponent
    if point <= 0:
        out = "0." + "0" * (-point) + digits
    elif point >= len(digits):
        out = digits + "0" * (point - len(digits))
    else:
        out = digits[:point] + "." + digits[point:]
    return sign + out
