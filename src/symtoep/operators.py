"""Operator matrices on the antisymmetrized Hardy space.

The matrix element of a multiplication-type operator with symmetric
symbol phi between normalized antisymmetrized basis vectors is

    <T_phi e_p, e_q> = sum_{sigma} sgn(sigma) * alpha_{q_sigma - p},

where alpha is the coefficient of phi at a lattice point (read off at
the point's orbit representative) and the sum runs over coordinate
permutations of q.  Toeplitz, Laurent, Hankel and dual-Toeplitz kinds
share this formula and differ only in their row/column index sets.

Every operator kind here has exactly computable, finitely supported
columns, so products such as the Brown-Halmos residuals are assembled
by composing exact column maps; no truncated matrix product is ever
used for an exactness verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, MarginError, NotToeplitzError
from .partitions import (
    Partition,
    Window,
    analytic_window,
    antisymmetrize,
    shift,
    signed_index_permutations,
)
from .scalars import ONE, ComplexRational
from .symbols import Symbol, elementary, multiply


def _as_partition(p) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


# -- exact sparse vectors (Partition -> ComplexRational) -------------------

def vec_combine(a: dict, b: dict, sign: int) -> dict:
    """Exact a + b (sign = 1) or a - b (sign = -1), dropping cancelled entries."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        if cur is None:
            nv = v if sign > 0 else -v
        else:
            nv = cur + v if sign > 0 else cur - v
        if nv:
            out[k] = nv
        elif cur is not None:
            del out[k]
    return out


# -- operator kinds ---------------------------------------------------------


class OperatorSpec:
    """Base: exact entries and exact finitely-supported column maps."""

    d: int

    def accepts_row(self, q: Partition) -> bool:
        raise NotImplementedError

    def accepts_col(self, p: Partition) -> bool:
        raise NotImplementedError

    def entry(self, q, p) -> ComplexRational:
        raise NotImplementedError

    def apply(self, vec: dict) -> dict:
        raise NotImplementedError

    def column(self, p) -> dict:
        """Cached exact image of a basis vector; treat as read-only."""
        cache = getattr(self, "_col_cache", None)
        if cache is None:
            cache = {}
            self._col_cache = cache
        p = _as_partition(p)
        col = cache.get(p)
        if col is None:
            col = self.apply({p: ONE})
            cache[p] = col
        return col

    def _check_row(self, q: Partition):
        if not self.accepts_row(q):
            raise DomainError(f"{type(self).__name__} row index out of domain: {tuple(q)}")

    def _check_col(self, p: Partition):
        if not self.accepts_col(p):
            raise DomainError(f"{type(self).__name__} column index out of domain: {tuple(p)}")


class _SymbolOperator(OperatorSpec):
    """Shared closed-form entry/apply for multiplication-type kinds."""

    # subclasses set: _row_analytic / _col_analytic in {True, False, None}
    _row_analytic: bool | None = None
    _col_analytic: bool | None = None

    def __init__(self, symbol: Symbol):
        self.symbol = symbol
        self.d = symbol.d

    def accepts_row(self, q: Partition) -> bool:
        want = self._row_analytic
        return True if want is None else q.is_analytic == want

    def accepts_col(self, p: Partition) -> bool:
        want = self._col_analytic
        return True if want is None else p.is_analytic == want

    def entry(self, q, p) -> ComplexRational:
        q = _as_partition(q)
        p = _as_partition(p)
        if q.d != self.d or p.d != self.d:
            raise DomainError("index dimension mismatch")
        self._check_row(q)
        self._check_col(p)
        coeffs = self.symbol.coeffs
        total = ComplexRational(0)
        for perm, sign in signed_index_permutations(self.d):
            diff = tuple(q[k] - x for k, x in zip(perm, p))
            c = coeffs.get(tuple(sorted(diff, reverse=True)))
            if c is not None:
                total = total + c if sign > 0 else total - c
        return total

    def apply(self, vec: dict) -> dict:
        keep = self._row_analytic
        acc: dict = {}
        terms = self.symbol.lattice_terms()
        for p, v in vec.items():
            p = _as_partition(p)
            self._check_col(p)
            for point, c in terms:
                sign, part = antisymmetrize(tuple(x + y for x, y in zip(p, point)))
                if not sign:
                    continue
                if keep is not None and part.is_analytic != keep:
                    continue
                w = c * v if sign > 0 else -(c * v)
                cur = acc.get(part)
                acc[part] = w if cur is None else cur + w
        return {k: v for k, v in acc.items() if v}

    def __repr__(self):
        return f"{type(self).__name__}({self.symbol!r})"


class Laurent(_SymbolOperator):
    """Multiplication by the symbol on the full doubly-infinite model."""
    _row_analytic = None
    _col_analytic = None


class Toeplitz(_SymbolOperator):
    """Compression of multiplication to the analytic subspace."""
    _row_analytic = True
    _col_analytic = True


class Hankel(_SymbolOperator):
    """Off-diagonal part: analytic input, non-analytic output."""
    _row_analytic = False
    _col_analytic = True


class DualToeplitz(_SymbolOperator):
    """Compression of multiplication to the non-analytic complement."""
    _row_analytic = False
    _col_analytic = False


class ShiftY(OperatorSpec):
    """Basis shift e_p -> e_{p + f_j}, f_j = (1,...,1,0,...,0) with j ones.

    Not a Toeplitz operator for 1 <= j <= d-1; satisfies the final
    Brown-Halmos relation but fails the coordinate ones.
    """

    def __init__(self, d: int, j: int):
        if d < 2:
            raise DomainError("shift needs d >= 2")
        if not 1 <= j <= d - 1:
            raise DomainError(f"shift index must satisfy 1 <= j <= d-1, got {j}")
        self.d = d
        self.j = j
        self.step = (1,) * j + (0,) * (d - j)

    def accepts_row(self, q: Partition) -> bool:
        return q.is_analytic

    def accepts_col(self, p: Partition) -> bool:
        return p.is_analytic

    def shifted(self, p: Partition) -> Partition:
        return shift(p, 1, self.j)

    def entry(self, q, p) -> ComplexRational:
        q = _as_partition(q)
        p = _as_partition(p)
        self._check_row(q)
        self._check_col(p)
        return ComplexRational(1) if q == self.shifted(p) else ComplexRational(0)

    def apply(self, vec: dict) -> dict:
        out = {}
        for p, v in vec.items():
            p = _as_partition(p)
            self._check_col(p)
            out[self.shifted(p)] = v
        return out

    def __repr__(self):
        return f"ShiftY(d={self.d}, j={self.j})"


class FiniteRank(OperatorSpec):
    """Explicit finite sum of rank-one terms c * e_q <., e_p>."""

    def __init__(self, d: int, terms):
        if d < 2:
            raise DomainError("operators need d >= 2")
        self.d = d
        table: dict = {}
        for q, p, c in terms:
            q = _as_partition(q)
            p = _as_partition(p)
            if q.d != d or p.d != d:
                raise DomainError("finite-rank term dimension mismatch")
            if not isinstance(c, ComplexRational):
                c = ComplexRational(c)
            key = (q, p)
            table[key] = table.get(key, ComplexRational(0)) + c
        self.table = {k: v for k, v in table.items() if v}
        cols: dict = {}
        for (q, p), c in self.table.items():
            cols.setdefault(p, {})[q] = c
        self._cols = cols

    def accepts_row(self, q: Partition) -> bool:
        return True

    def accepts_col(self, p: Partition) -> bool:
        return True

    def entry(self, q, p) -> ComplexRational:
        return self.table.get((_as_partition(q), _as_partition(p)), ComplexRational(0))

    def apply(self, vec: dict) -> dict:
        acc: dict = {}
        for p, v in vec.items():
            col = self._cols.get(_as_partition(p))
            if not col:
                continue
            for q, c in col.items():
                w = c * v
                cur = acc.get(q)
                acc[q] = w if cur is None else cur + w
        return {k: v for k, v in acc.items() if v}

    def __repr__(self):
        return f"FiniteRank(d={self.d}, terms={len(self.table)})"


class OpSum(OperatorSpec):
    """Sum of operator specs sharing d."""

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise DomainError("empty operator sum")
        self.d = ops[0].d
        if any(op.d != self.d for op in ops):
            raise DomainError("operator sum dimension mismatch")
        self.ops = ops

    def accepts_row(self, q: Partition) -> bool:
        return all(op.accepts_row(q) for op in self.ops)

    def accepts_col(self, p: Partition) -> bool:
        return all(op.accepts_col(p) for op in self.ops)

    def entry(self, q, p) -> ComplexRational:
        total = ComplexRational(0)
        for op in self.ops:
            total = total + op.entry(q, p)
        return total

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for op in self.ops:
            out = vec_combine(out, op.apply(vec), 1)
        return out

    def __repr__(self):
        return f"OpSum({list(self.ops)!r})"


class Commutator(OperatorSpec):
    """[A, B] = AB - BA, composed from the exact column maps of A and B."""

    def __init__(self, a: OperatorSpec, b: OperatorSpec):
        if a.d != b.d:
            raise DomainError("commutator dimension mismatch")
        self.d = a.d
        self.a = a
        self.b = b

    def accepts_row(self, q: Partition) -> bool:
        return self.a.accepts_row(q) and self.b.accepts_row(q)

    def accepts_col(self, p: Partition) -> bool:
        return self.a.accepts_col(p) and self.b.accepts_col(p)

    def apply(self, vec: dict) -> dict:
        a, b = self.a, self.b
        return vec_combine(a.apply(b.apply(vec)), b.apply(a.apply(vec)), -1)


# -- assembled finite matrices ----------------------------------------------


@dataclass
class MatrixWindow:
    """Sparse exact matrix over explicit row/column windows."""

    rows: Window
    cols: Window
    entries: dict = field(default_factory=dict)  # (row_idx, col_idx) -> ComplexRational
    exact: bool = True

    def is_zero(self) -> bool:
        return not any(self.entries.values())

    def entry_at(self, q, p) -> ComplexRational:
        i = self.rows.position[_as_partition(q)]
        j = self.cols.position[_as_partition(p)]
        return self.entries.get((i, j), ComplexRational(0))

    def nonzero_witnesses(self, limit: int = 5) -> list:
        out = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            if v:
                out.append((self.rows.members[i], self.cols.members[j], v))
                if len(out) >= limit:
                    break
        return out

    def to_dense(self) -> np.ndarray:
        a = np.zeros((len(self.rows), len(self.cols)), dtype=complex)
        for (i, j), v in self.entries.items():
            a[i, j] = v.to_complex()
        return a

    def max_abs(self) -> float:
        return max((abs(v.to_complex()) for v in self.entries.values()), default=0.0)

    def to_csv_text(self) -> str:
        lines = ["row;col;re;im"]
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            if v:
                re, im = v.rational_strings()
                lines.append(f"{i};{j};{re};{im}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        ent = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            if v:
                re, im = v.rational_strings()
                ent.append({"row": i, "col": j, "re": re, "im": im})
        return {
            "rows": self.rows.to_json_dict(),
            "cols": self.cols.to_json_dict(),
            "exact": self.exact,
            "entries": ent,
        }


def assemble(op: OperatorSpec, rows: Window, cols: Window) -> MatrixWindow:
    """Exact window matrix of op, assembled column by column."""
    if rows.d != op.d or cols.d != op.d:
        raise DomainError("window dimension does not match operator")
    for q in rows:
        op._check_row(q)
    for p in cols:
        op._check_col(p)
    return matrix_from_columns({p: op.column(p) for p in cols}, rows, cols)


def matrix_from_columns(columns: dict, rows: Window, cols: Window) -> MatrixWindow:
    """Assemble a MatrixWindow from exact column vectors keyed by partition."""
    entries = {}
    rowpos = rows.position
    for j, p in enumerate(cols.members):
        col = columns.get(p, {})
        for q, v in col.items():
            i = rowpos.get(q)
            if i is not None and v:
                entries[(i, j)] = v
    return MatrixWindow(rows, cols, entries)


# -- Brown-Halmos residuals ---------------------------------------------------


@lru_cache(maxsize=None)
def _coordinate_symbols(d: int) -> tuple[tuple[Symbol, ...], tuple[Symbol, ...]]:
    # one (s_i, conj s_i) set per d: symbols are never mutated, and sharing
    # them shares their cached lattice terms across residual calls
    s = tuple(elementary(d, i) for i in range(1, d + 1))
    return s, tuple(x.conjugate() for x in s)


def _distinguished(d: int, analytic: bool) -> tuple[list, list]:
    """The distinguished tuple (Z_1, ..., Z_d) of one side, and its adjoints.

    Analytic side: Z_i = T_{s_i} with adjoint T_{conj s_i}.  Non-analytic
    side: Z_i = DT_{conj s_i} with adjoint DT_{s_i}.  Z_d moves every index
    along the diagonal, up on the analytic side and down on the other.
    """
    s, s_bar = _coordinate_symbols(d)
    kind, z, z_adj = (Toeplitz, s, s_bar) if analytic else (DualToeplitz, s_bar, s)
    return [kind(x) for x in z], [kind(x) for x in z_adj]


def bh_residual_column(T: OperatorSpec, i: int, p) -> dict:
    """Exact column at p of the i-th Brown-Halmos residual of T.

    The side of the model is that of p.  With that side's distinguished
    tuple Z, the residual is Z_i^* T Z_d - T Z_{d-i} for 1 <= i <= d-1 and
    Z_d^* T Z_d - T for i = d: the Toeplitz relations on the analytic
    side, the dual Toeplitz relations on the non-analytic complement.
    Z_d e_p is one diagonally shifted basis vector, and every other factor
    acts as an exact column map.
    """
    d = T.d
    if not 1 <= i <= d:
        raise DomainError(f"residual index must satisfy 1 <= i <= d, got {i}")
    p = _as_partition(p)
    z, z_adj = _distinguished(d, p.is_analytic)
    first = z_adj[i - 1].apply(T.column(shift(p, 1 if p.is_analytic else -1)))
    second = T.column(p) if i == d else T.apply(z[d - i - 1].column(p))
    return vec_combine(first, second, -1)


def bh_residual_entry(T: OperatorSpec, i: int, q, p) -> ComplexRational:
    """Residual entry by direct inner-product expansion on shifted indices.

    Independent of the column route; uses only T.entry, through
    <Z_i^* T Z_d e_p, e_q> = <T Z_d e_p, Z_i e_q>.
    """
    d = T.d
    if not 1 <= i <= d:
        raise DomainError(f"residual index must satisfy 1 <= i <= d, got {i}")
    q = _as_partition(q)
    p = _as_partition(p)
    if q.is_analytic != p.is_analytic:
        raise DomainError("residual entries need q and p on one side")
    step = 1 if p.is_analytic else -1
    p1 = shift(p, step)
    if i == d:
        return T.entry(shift(q, step), p1) - T.entry(q, p)
    z, _ = _distinguished(d, p.is_analytic)
    total = ComplexRational(0)
    for r, c in z[i - 1].column(q).items():
        # coefficients are +-1, so conjugation is the identity
        total = total + c * T.entry(r, p1)
    for t, c in z[d - i - 1].column(p).items():
        total = total - c * T.entry(q, t)
    return total


def bh_residuals(T: OperatorSpec, window: Window) -> list[MatrixWindow]:
    """All d residual matrices of T on the window (exact).

    The window lies on one side of the model.  Zero residuals
    characterize Toeplitz operators on an analytic window and dual
    Toeplitz operators on a non-analytic one; the returned list holds the
    coordinate relations i = 1..d-1 followed by the top-degree relation.
    """
    if window.d != T.d:
        raise DomainError("window dimension does not match operator")
    if len({p.is_analytic for p in window}) > 1:
        raise DomainError("Brown-Halmos residuals need a window on one side of the model")
    return [bh_residual_matrix(T, i, window) for i in range(1, T.d + 1)]


def bh_residual_matrix(T: OperatorSpec, i: int, window: Window) -> MatrixWindow:
    """The i-th residual matrix of T on the window (exact).

    Its rows widen to the columns' support when it vanishes on the window
    alone, so that a thin window keeps the witness of a non-Toeplitz T.
    """
    columns = {p: bh_residual_column(T, i, p) for p in window}
    m = matrix_from_columns(columns, window, window)
    if m.is_zero() and any(columns.values()):
        members = set(window).union(*columns.values())
        rows = Window(window.d, max(q[0] for q in members), min(q[-1] for q in members),
                      members)
        m = matrix_from_columns(columns, rows, window)
    return m


# -- symbol recovery ---------------------------------------------------------


def _candidate_reps(d: int, bound: int):
    import itertools

    values = range(bound, -bound - 1, -1)
    return list(itertools.combinations_with_replacement(values, d))


def recover_symbol(oracle, d: int, degree_bound: int, check: bool = True) -> Symbol:
    """Unique symbol of height <= degree_bound matching a Toeplitz entry oracle.

    oracle: an OperatorSpec or a callable (q, p) -> ComplexRational on
    analytic pairs.  Probe pairs q = (K d, ..., K), p = q - m_ascending
    with K = 2*degree_bound + 2 push every off-identity permutation term
    outside the height bound, so each probe reads one coefficient
    directly.  A Brown-Halmos pre-check and a full round-trip window
    comparison guard against oracles that are not Toeplitz within the
    bound; an oracle that cannot serve the needed indices raises
    MarginError.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    is_spec = isinstance(oracle, OperatorSpec)
    entry_fn = oracle.entry if is_spec else oracle
    if is_spec and oracle.d != d:
        raise DomainError("oracle dimension mismatch")

    guard_window = analytic_window(d, degree_bound + d)
    if check:
        if is_spec:
            for i, res in enumerate(bh_residuals(oracle, guard_window), start=1):
                for q, p, _ in res.nonzero_witnesses(1):
                    raise NotToeplitzError(
                        f"Brown-Halmos residual {i} nonzero at ({tuple(q)}, {tuple(p)})")
        else:
            probe_T = _CallableEntries(d, entry_fn)
            for i in range(1, d + 1):
                for p in guard_window:
                    for q in guard_window:
                        try:
                            residual = bh_residual_entry(probe_T, i, q, p)
                        except (DomainError, KeyError, IndexError) as exc:
                            raise MarginError(
                                "oracle cannot serve the Brown-Halmos pre-check "
                                f"near ({tuple(q)}, {tuple(p)}); provide a larger window"
                            ) from exc
                        if residual:
                            raise NotToeplitzError(
                                f"Brown-Halmos residual {i} nonzero at ({tuple(q)}, {tuple(p)})"
                            )

    K = 2 * degree_bound + 2
    q_probe = Partition(tuple(K * (d - k) for k in range(d)))
    coeffs = {}
    for m in _candidate_reps(d, degree_bound):
        m_asc = tuple(reversed(m))
        p_probe = Partition(tuple(x - y for x, y in zip(q_probe, m_asc)))
        try:
            val = entry_fn(q_probe, p_probe)
        except (DomainError, KeyError, IndexError) as exc:
            raise MarginError(
                f"oracle cannot serve probe ({tuple(q_probe)}, {tuple(p_probe)}); "
                "provide a larger window"
            ) from exc
        if val:
            coeffs[m] = val
    recovered = Symbol(d, coeffs)

    if check:
        model = Toeplitz(recovered)
        for p in guard_window:
            expected = model.column(p)
            for q in guard_window:
                try:
                    got = entry_fn(q, p)
                except (DomainError, KeyError, IndexError) as exc:
                    raise MarginError(
                        "oracle cannot serve the verification window"
                    ) from exc
                if got != expected.get(q, ComplexRational(0)):
                    raise NotToeplitzError(
                        f"oracle disagrees with recovered symbol at ({tuple(q)}, {tuple(p)}); "
                        "not a Toeplitz operator within the degree bound"
                    )
    return recovered


class _CallableEntries(OperatorSpec):
    """Adapter giving a raw entry callable the OperatorSpec entry face."""

    def __init__(self, d: int, fn):
        self.d = d
        self._fn = fn

    def accepts_row(self, q):
        return q.is_analytic

    def accepts_col(self, p):
        return p.is_analytic

    def entry(self, q, p):
        v = self._fn(_as_partition(q), _as_partition(p))
        return v if isinstance(v, ComplexRational) else ComplexRational(v)


# -- semi-commutator / product defect ----------------------------------------


def product_defect(phi: Symbol, psi: Symbol, window: Window) -> MatrixWindow:
    """Exact window matrix of T_phi T_psi - T_{phi psi} + H_{conj phi}^* H_psi.

    Identically zero for every pair of symbols; the Hankel pairing sum is
    finite because polynomial symbols give finitely supported Hankel
    columns.
    """
    if phi.d != psi.d or phi.d != window.d:
        raise DomainError("dimension mismatch")
    if window.max_top < phi.height() + psi.height():
        raise MarginError(
            f"window maxTop {window.max_top} below combined height "
            f"{phi.height() + psi.height()}"
        )
    t_phi = Toeplitz(phi)
    t_psi = Toeplitz(psi)
    t_prod = Toeplitz(multiply(phi, psi))
    h_psi = Hankel(psi)
    h_phibar = Hankel(phi.conjugate())

    # row r of H_{conj phi}^* on the window: the transposed, conjugated columns
    adjoint_rows: dict = {}
    for q in window:
        for r, v in h_phibar.column(q).items():
            adjoint_rows.setdefault(r, {})[q] = v.conjugate()
    columns = {}
    for p in window:
        col = vec_combine(t_phi.apply(t_psi.column(p)), t_prod.column(p), -1)
        for r, v in h_psi.column(p).items():
            for q, w in adjoint_rows.get(r, {}).items():
                col[q] = col[q] + v * w if q in col else v * w
        columns[p] = col
    return matrix_from_columns(columns, window, window)


# -- analyticity classification ----------------------------------------------


@dataclass
class CommutatorCheck:
    partner: str
    exact_zero: bool
    witness: tuple | None

    def to_json_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            q, p, v = self.witness
            re, im = v.rational_strings()
            wit = {"row": list(q), "col": list(p), "re": re, "im": im}
        return {"partner": self.partner, "exactZero": self.exact_zero, "witness": wit}


@dataclass
class ClassifyReport:
    symbol_analytic: bool
    checks: list
    consistent: bool

    @property
    def commutes_with_all(self) -> bool:
        return all(c.exact_zero for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "check": "analytic-classification",
            "verdict": "pass" if self.consistent else "fail",
            "symbolAnalytic": self.symbol_analytic,
            "commutators": [c.to_json_dict() for c in self.checks],
        }


def classify_analytic(phi: Symbol, window: Window) -> ClassifyReport:
    """Decide analyticity of T_phi via exact commutators with T_{s_i} and T_p.

    The commutator columns are exact on the whole model (not truncated),
    so a zero verdict is a literal identity on the window's columns and a
    nonzero verdict carries an exact witness.
    """
    d = phi.d
    if window.d != d:
        raise DomainError("window dimension mismatch")
    if window.max_top < phi.height() + d:
        raise MarginError(
            f"window maxTop {window.max_top} below height(phi) + d = {phi.height() + d}"
        )
    t_phi = Toeplitz(phi)
    names = [f"s_{i}" for i in range(1, d)] + ["p"]
    checks = []
    for name, other in zip(names, _distinguished(d, True)[0]):
        commutator = Commutator(t_phi, other)
        witness = None
        for p in window:
            col = commutator.column(p)
            if col:
                q = sorted(col)[0]
                witness = (q, p, col[q])
                break
        checks.append(CommutatorCheck(name, witness is None, witness))
    all_zero = all(c.exact_zero for c in checks)
    return ClassifyReport(phi.is_analytic, checks, consistent=(all_zero == phi.is_analytic))


# -- floating norms -----------------------------------------------------------


def norm_estimate(m, iterations: int = 100, seed: int = 42) -> float:
    """Seeded power-iteration lower bound for the largest singular value.

    Rayleigh quotients of A^*A are nondecreasing along the iteration, so
    more iterations never lower the estimate.
    """
    if isinstance(m, MatrixWindow):
        a = m.to_dense()
    else:
        a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    b = a.conj().T @ a
    n = b.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(iterations):
        y = b @ x
        ny = np.linalg.norm(y)
        if ny < 1e-300:
            return 0.0
        x = y / ny
    r = float(np.real(np.vdot(x, b @ x)))
    return math.sqrt(max(r, 0.0))


@dataclass
class LiftRow:
    max_top: int
    min_bottom: int
    toeplitz_norm: float
    laurent_norm: float
    block_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "maxTop": self.max_top,
            "minBottom": self.min_bottom,
            "toeplitzNorm": self.toeplitz_norm,
            "laurentNorm": self.laurent_norm,
            "blockOk": self.block_ok,
        }


@dataclass
class LiftReport:
    rows: list
    sampled_sup: float
    chain_ok: bool
    monotone_ok: bool

    @property
    def passed(self) -> bool:
        return self.chain_ok and self.monotone_ok and all(r.block_ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "check": "laurent-lift",
            "verdict": "pass" if self.passed else "fail",
            "sampledSup": self.sampled_sup,
            "windows": [r.to_json_dict() for r in self.rows],
            "chainOk": self.chain_ok,
            "monotoneOk": self.monotone_ok,
        }


def lift_verify(phi: Symbol, windows, iterations: int = 200, seed: int = 42,
                grid_size: int = 128, tol: float = 1e-9) -> LiftReport:
    """Compression/lift consistency of T_phi inside Laurent windows.

    For each window: the analytic-square block of the Laurent matrix must
    equal the Toeplitz matrix exactly, and the windowed Toeplitz norm may
    not exceed the windowed Laurent norm (floating tolerance).  Both norm
    sequences are nondecreasing over increasing windows and approach the
    sampled sup norm of the symbol from below.
    """
    rows = []
    laurent_op = Laurent(phi)
    toeplitz_op = Toeplitz(phi)
    for w in windows:
        if w.d != phi.d:
            raise DomainError("window dimension mismatch")
        wa = w.analytic_part()
        if not len(wa):
            raise DomainError("window has empty analytic part")
        lm = assemble(laurent_op, w, w)
        tm = assemble(toeplitz_op, wa, wa)
        block = {(w.members[i], w.members[j]): v for (i, j), v in lm.entries.items()
                 if w.members[i].is_analytic and w.members[j].is_analytic}
        block_ok = block == {(wa.members[i], wa.members[j]): v
                             for (i, j), v in tm.entries.items()}
        rows.append(LiftRow(w.max_top, w.min_bottom,
                            norm_estimate(tm, iterations, seed),
                            norm_estimate(lm, iterations, seed),
                            block_ok))
    chain_ok = all(r.toeplitz_norm <= r.laurent_norm + tol for r in rows)
    monotone_ok = all(
        rows[k].toeplitz_norm <= rows[k + 1].toeplitz_norm + tol
        and rows[k].laurent_norm <= rows[k + 1].laurent_norm + tol
        for k in range(len(rows) - 1)
    )
    return LiftReport(rows, phi.sup_norm_sampled(grid_size), chain_ok, monotone_ok)
