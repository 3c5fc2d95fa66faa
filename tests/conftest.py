"""Shared helpers for the test suite."""

import itertools

from symtoep import Symbol, elementary, unit


def symbol_battery(d: int) -> list[Symbol]:
    """Standard symbol battery in dimension d.

    Unit, the elementary symbols s_1..s_d, their conjugates, every
    unordered pairwise product (with repetition) of those 2d generators,
    and the self-adjoint s_1 + conj(s_1).  Sizes: 16 for d=2, 29 for d=3.
    """
    gens = [elementary(d, i) for i in range(1, d + 1)]
    gens = gens + [g.conjugate() for g in gens]
    out = [unit(d)] + list(gens)
    for a, b in itertools.combinations_with_replacement(gens, 2):
        out.append(a * b)
    out.append(elementary(d, 1) + elementary(d, 1).conjugate())
    return out


def worst_failure(report) -> float:
    """Largest margin among a tuple check's failing items (its witnesses), or 0."""
    return max((item["margin"] for item in report.witnesses), default=0.0)


def compose_columns(outer, inner, p) -> dict:
    """Exact column of (outer . inner) at basis vector p."""
    out = {}
    for r, c in inner.column(p).items():
        for s, c2 in outer.column(r).items():
            acc = out.get(s)
            out[s] = c * c2 if acc is None else acc + c * c2
    return {k: v for k, v in out.items() if v}
