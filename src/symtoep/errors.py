"""Error types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (bad index, wrong d, off-torus point)."""


class MarginError(ValueError):
    """Window too small for the requested check, or work over a size cap."""


def require_budget(count: int, cap: int, name: str, what: str, hint: str) -> None:
    """Raise MarginError when count exceeds cap, before any of the work is done.

    Every size cap goes through here, so each budget message has one shape:
    what (the counted work, with its count), the cap's name and size, and
    a hint on how to shrink the input.
    """
    if count > cap:
        raise MarginError(f"{what}, over the {name} cap of {cap}; {hint}")


class DegeneracyError(RuntimeError):
    """Joint diagonalization hit a (near-)degenerate spectrum; re-run with another seed."""


class NotToeplitzError(ValueError):
    """Entry oracle is inconsistent with every Toeplitz matrix within the degree bound."""
