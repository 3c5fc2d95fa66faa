"""Operator matrices on the antisymmetrized Hardy space.

The matrix element of a multiplication-type operator with symmetric
symbol phi between normalized antisymmetrized basis vectors is

    <T_phi e_p, e_q> = sum_{sigma} sgn(sigma) * alpha_{q_sigma - p},

where alpha is the coefficient of phi at a lattice point (read off at
the point's orbit representative) and the sum runs over coordinate
permutations of q.  Toeplitz, Laurent, Hankel and dual-Toeplitz kinds
share this formula and differ only in their row/column index sets.

Each operator kind defines only the exact, finitely supported image of
a basis vector, cached by OperatorSpec as ``column``.  Every composed
column (``apply``, sums, commutators, product defects) adds its terms'
signed images into one dict in place, and all d Brown-Halmos residual
columns at p come from one walk over T's diagonal-step column and one
shared step table; no truncated matrix product decides exactness.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

import numpy as np

from .errors import DomainError, MarginError, NotToeplitzError, require_budget
from .partitions import (
    Partition,
    Window,
    analytic_window,
    antisymmetrize,
    orbit_permutations,
    shift,
    signed_index_permutations,
)
from .scalars import ONE, ComplexRational
from .symbols import Symbol, multiply


def _as_partition(p) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


# -- exact sparse vectors (Partition -> ComplexRational) -------------------

def _accumulate(acc: dict, op: "OperatorSpec", vec: dict, sign: int) -> None:
    """Add sign * op(vec) into acc in place; cancelled entries stay, as zeros.

    The sign and the unit tests are made once per column of op, not per
    entry: every value of a kind with ``_unit_columns`` is the shared ONE,
    so its image only adds v at the column's keys, and a factor v that is
    ONE adds or subtracts op's column with no multiply.
    """
    get = acc.get
    column = op.column
    unit = op._unit_columns
    for p, v in vec.items():
        col = column(p)
        if unit:
            if sign > 0:
                for q in col:
                    cur = get(q)
                    acc[q] = v if cur is None else cur + v
            else:
                for q in col:
                    cur = get(q)
                    acc[q] = -v if cur is None else cur - v
        elif v is ONE:
            if sign > 0:
                for q, c in col.items():
                    cur = get(q)
                    acc[q] = c if cur is None else cur + c
            else:
                for q, c in col.items():
                    cur = get(q)
                    acc[q] = -c if cur is None else cur - c
        else:
            if sign < 0:
                v = -v
            for q, c in col.items():
                w = c * v
                cur = get(q)
                acc[q] = w if cur is None else cur + w


def _pruned(acc: dict) -> dict:
    """The accumulated vector without its cancelled entries."""
    return {k: v for k, v in acc.items() if v}


# -- operator kinds ---------------------------------------------------------


class OperatorSpec:
    """Base: exact entries, and column/apply over each kind's basis image _image(p)."""

    d: int
    _unit_columns = False  # True when every column value is the shared ONE

    def accepts_row(self, q: Partition) -> bool:
        raise NotImplementedError

    def accepts_col(self, p: Partition) -> bool:
        raise NotImplementedError

    def entry(self, q, p) -> ComplexRational:
        raise NotImplementedError

    def _image(self, p: Partition) -> dict:
        raise NotImplementedError

    def column(self, p) -> dict:
        """Cached exact image of a basis vector; treat as read-only."""
        cache = getattr(self, "_col_cache", None)
        if cache is None:
            cache = self._col_cache = {}
        p = _as_partition(p)
        col = cache.get(p)
        if col is None:
            self._check_col(p)
            col = cache[p] = self._image(p)
        return col

    def apply(self, vec: dict) -> dict:
        """Exact image of a sparse vector: the combination of its columns."""
        acc: dict = {}
        _accumulate(acc, self, vec, 1)
        return _pruned(acc)

    def _check_row(self, q: Partition):
        if not self.accepts_row(q):
            raise DomainError(f"{type(self).__name__} row index out of domain: {tuple(q)}")

    def _check_col(self, p: Partition):
        if not self.accepts_col(p):
            raise DomainError(f"{type(self).__name__} column index out of domain: {tuple(p)}")


class _SymbolOperator(OperatorSpec):
    """Shared closed-form entry and basis image for multiplication-type kinds."""

    # subclasses set: _row_analytic / _col_analytic in {True, False, None}
    _row_analytic: bool | None = None
    _col_analytic: bool | None = None

    def __init__(self, symbol: Symbol):
        self.symbol = symbol
        self.d = symbol.d

    def accepts_row(self, q: Partition) -> bool:
        return self._row_analytic in (None, q.is_analytic)

    def accepts_col(self, p: Partition) -> bool:
        return self._col_analytic in (None, p.is_analytic)

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

    def _image(self, p: Partition) -> dict:
        keep = self._row_analytic
        acc: dict = {}
        for point, c in self.symbol.lattice_terms():
            sign, part = antisymmetrize(map(add, p, point))
            if not sign or keep is not None and part.is_analytic != keep:
                continue
            w = c if sign > 0 else -c
            cur = acc.get(part)
            acc[part] = w if cur is None else cur + w
        return _pruned(acc)

    def __repr__(self):
        return f"{type(self).__name__}({self.symbol!r})"


class Laurent(_SymbolOperator):
    """Multiplication by the symbol on the full doubly-infinite model."""


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
    _unit_columns = True

    def __init__(self, d: int, j: int):
        if d < 2:
            raise DomainError("shift needs d >= 2")
        if not 1 <= j <= d - 1:
            raise DomainError(f"shift index must satisfy 1 <= j <= d-1, got {j}")
        self.d = d
        self.j = j

    @property
    def step(self) -> tuple:
        """f_j as a d-tuple, built on request, so a shift of huge d costs nothing up front."""
        return (1,) * self.j + (0,) * (self.d - self.j)

    def accepts_row(self, q: Partition) -> bool:
        return q.is_analytic

    accepts_col = accepts_row

    def shifted(self, p: Partition) -> Partition:
        return shift(p, 1, self.j)

    def entry(self, q, p) -> ComplexRational:
        q = _as_partition(q)
        p = _as_partition(p)
        self._check_row(q)
        self._check_col(p)
        return ComplexRational(1) if q == self.shifted(p) else ComplexRational(0)

    def _image(self, p: Partition) -> dict:
        return {self.shifted(p): ONE}

    def __repr__(self):
        return f"ShiftY(d={self.d}, j={self.j})"


@lru_cache(maxsize=None)
def _step_table(d: int, sign: int) -> tuple:
    """At k: each step sign*e, e a 0/1 vector of k ones, in orbit_permutations order, and its
    mask, with bit j < d-1 if it ties p_j, p_{j+1} at a gap of 1, bit d-1 if it moves p_{d-1}."""
    return tuple(tuple((s, sum(1 << j for j in range(d - 1) if s[j] - s[j + 1] == -1)
                        | (s[-1] != 0) << (d - 1))
                       for s in orbit_permutations((sign,) * k + (0,) * (d - k)))
                 for k in range(d + 1))


def _steps(p: Partition, sign: int, edge, ones) -> list:
    """(k, p + sign*e) over table steps with k in ones, keeping p strict and off edge."""
    blocked = (p[-1] == edge) << (len(p) - 1)
    for k in range(len(p) - 1):
        if p[k] - p[k + 1] == 1:
            blocked |= 1 << k
    return [(k, Partition._unsafe(map(add, p, s))) for k in ones
            for s, mask in _step_table(len(p), sign)[k] if not blocked & mask]


class _CoordinateStep(OperatorSpec):
    """T_{s_i} (sign 1) or T_{conj s_i} (sign -1) in closed form on one side.

    For strict p and a 0/1 vector e with i ones, p + e and p - e are
    non-increasing: strict, with coefficient exactly +1 and no reordering,
    or with a tie, where the term vanishes.  So the image of e_p is the sum
    of e_{p + sign*e} over the steps of _step_table that keep the index
    strict and on the side, every coefficient the shared ONE.  On the
    analytic side this is Toeplitz of s_i or conj s_i, on the non-analytic
    side DualToeplitz of the same symbol.
    """
    _unit_columns = True

    def __init__(self, d: int, i: int, sign: int, analytic: bool):
        self.d = d
        self.analytic = analytic
        self._ones, self._sign = (i,), sign
        # a last entry leaves the side from 0 moving down, or from -1 moving up
        self._edge = None if (sign > 0) == analytic else (0 if analytic else -1)

    def accepts_row(self, q: Partition) -> bool:
        return q.is_analytic == self.analytic

    accepts_col = accepts_row

    def _image(self, p: Partition) -> dict:
        return {r: ONE for _, r in _steps(p, self._sign, self._edge, self._ones)}


class FiniteRank(OperatorSpec):
    """Explicit finite sum of rank-one terms c * e_q <., e_p>."""

    def __init__(self, d: int, terms):
        if d < 2:
            raise DomainError("operators need d >= 2")
        self.d = d
        cols: dict = {}
        for q, p, c in terms:
            q = _as_partition(q)
            p = _as_partition(p)
            if q.d != d or p.d != d:
                raise DomainError("finite-rank term dimension mismatch")
            if not isinstance(c, ComplexRational):
                c = ComplexRational(c)
            col = cols.setdefault(p, {})
            cur = col.get(q)
            col[q] = c if cur is None else cur + c
        self._cols = {p: {q: c for q, c in col.items() if c} for p, col in cols.items()}

    def accepts_row(self, q: Partition) -> bool:
        return True

    accepts_col = accepts_row

    def entry(self, q, p) -> ComplexRational:
        col = self._cols.get(_as_partition(p), {})
        return col.get(_as_partition(q), ComplexRational(0))

    def _image(self, p: Partition) -> dict:
        return self._cols.get(p, {})

    def __repr__(self):
        terms = sum(len(col) for col in self._cols.values())
        return f"FiniteRank(d={self.d}, terms={terms})"


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
        return sum((op.entry(q, p) for op in self.ops), ComplexRational(0))

    def _image(self, p: Partition) -> dict:
        acc: dict = {}
        e_p = {p: ONE}
        for op in self.ops:
            _accumulate(acc, op, e_p, 1)
        return _pruned(acc)

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

    def _image(self, p: Partition) -> dict:
        a, b = self.a, self.b
        acc: dict = {}
        _accumulate(acc, a, b.column(p), 1)
        _accumulate(acc, b, a.column(p), -1)
        return _pruned(acc)


# -- assembled finite matrices ----------------------------------------------


@dataclass
class MatrixWindow:
    """Sparse exact matrix over explicit row/column windows."""

    rows: Window
    cols: Window
    entries: dict = field(default_factory=dict)  # (row_idx, col_idx) -> ComplexRational

    def is_zero(self) -> bool:
        return not any(self.entries.values())

    def keyed_entries(self) -> dict:
        """The entries keyed by (row index, column index) partitions."""
        rows, cols = self.rows.members, self.cols.members
        return {(rows[i], cols[j]): v for (i, j), v in self.entries.items()}

    def entry_at(self, q, p) -> ComplexRational:
        i = self.rows.position[_as_partition(q)]
        j = self.cols.position[_as_partition(p)]
        return self.entries.get((i, j), ComplexRational(0))

    def _nonzero(self):
        """(row position, column position, value) of each nonzero entry, sorted."""
        for i, j in sorted(self.entries):
            v = self.entries[(i, j)]
            if v:
                yield i, j, v

    def nonzero_witnesses(self, limit: int = 5) -> list:
        rows, cols = self.rows.members, self.cols.members
        return [(rows[i], cols[j], v) for i, j, v in itertools.islice(self._nonzero(), limit)]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((len(self.rows), len(self.cols)), dtype=complex)
        for (i, j), v in self.entries.items():
            a[i, j] = v.to_complex()
        return a

    def max_abs(self) -> float:
        return max((abs(v.to_complex()) for v in self.entries.values()), default=0.0)

    def to_csv_text(self) -> str:
        lines = ["row;col;re;im"]
        for i, j, v in self._nonzero():
            re, im = v.rational_strings()
            lines.append(f"{i};{j};{re};{im}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        ent = []
        for i, j, v in self._nonzero():
            re, im = v.rational_strings()
            ent.append({"row": i, "col": j, "re": re, "im": im})
        return {
            "rows": self.rows.to_json_dict(),
            "cols": self.cols.to_json_dict(),
            "exact": True,
            "entries": ent,
        }


def witness_dict(q, p, v: ComplexRational) -> dict:
    """JSON form of one exact witness entry v at row q, column p."""
    re, im = v.rational_strings()
    return {"row": list(q), "col": list(p), "re": re, "im": im}


@dataclass
class Report:
    """The verdict of one library check.

    ``details`` is the JSON object the command line prints for the check,
    and ``witnesses`` and ``norms`` are the lists ``verify`` prints beside
    it; a check with nothing to put there leaves them empty.
    """

    passed: bool
    details: dict
    witnesses: list = field(default_factory=list)
    norms: list = field(default_factory=list)


def pass_fail(passed: bool) -> str:
    """The ``verdict`` string of a check's details."""
    return "pass" if passed else "fail"


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


def _distinguished(d: int, analytic: bool) -> tuple[list, list]:
    """The distinguished tuple (Z_1, ..., Z_d) of one side, and its adjoints.

    Analytic side: Z_i = T_{s_i} with adjoint T_{conj s_i}.  Non-analytic
    side: Z_i = DT_{conj s_i} with adjoint DT_{s_i}.  Z_d moves every index
    along the diagonal, up on the analytic side and down on the other.
    """
    up = [_CoordinateStep(d, i, 1, analytic) for i in range(1, d + 1)]
    down = [_CoordinateStep(d, i, -1, analytic) for i in range(1, d + 1)]
    return (up, down) if analytic else (down, up)


def _workspace(wanted) -> tuple:
    """(wanted i, row -> adjoint steps, p -> columns) of one window."""
    return frozenset(wanted), {}, {}


def bh_residual_column(T: OperatorSpec, i: int, p, _shared=None) -> dict:
    """Exact column at p of the i-th Brown-Halmos residual of T.

    The side of the model is that of p.  With that side's distinguished
    tuple Z, the residual is Z_i^* T Z_d - T Z_{d-i} for 1 <= i <= d-1 and
    Z_d^* T Z_d - T for i = d: the Toeplitz relations on the analytic
    side, the dual Toeplitz relations on the non-analytic complement.
    Z_i steps by sigma*e and Z_i^* by -sigma*e over 0/1 vectors e of i ones
    (sigma = 1 on the analytic side, else -1), so all residuals at p come
    from one walk over T's column at p + sigma*1, each value added at its
    row's adjoint steps into residual |e|, and from T's columns at p's steps
    with |e| < d, each subtracted from residual d - |e|.  A _workspace
    ``_shared`` makes all its wanted residuals at p on the first call there.
    """
    d = T.d
    if not 1 <= i <= d:
        raise DomainError(f"residual index must satisfy 1 <= i <= d, got {i}")
    p = _as_partition(p)
    wanted, memo, made = _shared or _workspace((i,))
    cols = made.get(p)
    if cols is None:
        sigma = 1 if p.is_analytic else -1
        cols = {k: {} for k in wanted}
        for q, v in T.column(shift(p, sigma)).items():
            if q.is_analytic != p.is_analytic:
                raise DomainError(f"residual row {tuple(q)} is off the side of {tuple(p)}")
            targets = memo.get(q)
            if targets is None:
                targets = memo[q] = _steps(q, -sigma, 0 if sigma > 0 else -1, wanted)
            for k, r in targets:
                acc = cols[k]
                cur = acc.get(r)
                acc[r] = v if cur is None else cur + v
        for k, t in _steps(p, sigma, None, {d - k for k in wanted}):
            acc = cols[d - k]
            for q, c in T.column(t).items():
                cur = acc.get(q)
                acc[q] = -c if cur is None else cur - c
        cols = made[p] = {k: _pruned(acc) for k, acc in cols.items()}
    return cols[i]


def bh_residual_entry(T: OperatorSpec, i: int, q, p, _tuple=None) -> ComplexRational:
    """Residual entry by direct inner-product expansion on shifted indices.

    Independent of the column route; uses only T.entry, through
    <Z_i^* T Z_d e_p, e_q> = <T Z_d e_p, Z_i e_q>.  ``_tuple`` is as in
    bh_residual_column.
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
    z, _ = _tuple or _distinguished(d, p.is_analytic)
    total = ComplexRational(0)
    for r, c in z[i - 1].column(q).items():
        # coefficients are exactly +1, so conjugation is the identity
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
    shared = _workspace(range(1, T.d + 1))
    return [bh_residual_matrix(T, i, window, shared) for i in range(1, T.d + 1)]


def bh_residual_matrix(T: OperatorSpec, i: int, window: Window, _shared=None) -> MatrixWindow:
    """The i-th residual matrix of T on the window (exact).

    Its rows widen to the columns' support when it vanishes on the window
    alone, so that a thin window keeps the witness of a non-Toeplitz T.
    ``_shared`` is as in bh_residual_column; by default only i is wanted.
    """
    shared = _shared or _workspace((i,))
    columns = {p: bh_residual_column(T, i, p, shared) for p in window}
    m = matrix_from_columns(columns, window, window)
    if m.is_zero() and any(columns.values()):
        members = set(window).union(*columns.values())
        rows = Window(window.d, max(q[0] for q in members), min(q[-1] for q in members),
                      members)
        m = matrix_from_columns(columns, rows, window)
    return m


# -- symbol recovery ---------------------------------------------------------


def recover_symbol(oracle, d: int, degree_bound: int) -> Symbol:
    """Unique symbol of height <= degree_bound matching a Toeplitz entry oracle.

    oracle: an entry callable (q, p) -> ComplexRational on analytic pairs,
    such as ``Toeplitz(phi).entry``.  Probe pairs q = (K d, ..., K),
    p = q - m_ascending with K = 2*degree_bound + 2 push every
    off-identity permutation term outside the height bound, so each probe
    reads one coefficient directly.  A Brown-Halmos pre-check on the
    entries and a full round-trip window comparison guard against oracles
    that are not Toeplitz within the bound; an oracle that cannot serve
    the needed indices raises MarginError.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    guard_window = analytic_window(d, degree_bound + d)
    probe_T = _CallableEntries(d, oracle)
    analytic_tuple = _distinguished(d, True)
    for i in range(1, d + 1):
        for p in guard_window:
            for q in guard_window:
                try:
                    residual = bh_residual_entry(probe_T, i, q, p, analytic_tuple)
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
    heights = range(degree_bound, -degree_bound - 1, -1)
    for m in itertools.combinations_with_replacement(heights, d):
        m_asc = tuple(reversed(m))
        p_probe = Partition(tuple(x - y for x, y in zip(q_probe, m_asc)))
        try:
            val = oracle(q_probe, p_probe)
        except (DomainError, KeyError, IndexError) as exc:
            raise MarginError(
                f"oracle cannot serve probe ({tuple(q_probe)}, {tuple(p_probe)}); "
                "provide a larger window"
            ) from exc
        if val:
            coeffs[m] = val
    recovered = Symbol(d, coeffs)

    model = Toeplitz(recovered)
    for p in guard_window:
        expected = model.column(p)
        for q in guard_window:
            try:
                got = oracle(q, p)
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

    accepts_col = accepts_row

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

    # H_{conj phi}^* with rows on the window: the transposed, conjugated columns
    h_phibar_adj = FiniteRank(phi.d, ((q, r, v.conjugate()) for q in window
                                      for r, v in h_phibar.column(q).items()))
    columns = {}
    for p in window:
        col: dict = {}
        _accumulate(col, t_phi, t_psi.column(p), 1)
        _accumulate(col, t_prod, {p: ONE}, -1)
        _accumulate(col, h_phibar_adj, h_psi.column(p), 1)
        columns[p] = _pruned(col)
    return matrix_from_columns(columns, window, window)


# -- analyticity classification ----------------------------------------------


class ClassifyReport(Report):
    """The Report of classify_analytic.

    bench/workloads.py reads ``consistent``, ``commutes_with_all`` and
    ``to_json_dict()``; these names go when the benchmark harness reads the
    Report shape (ROADMAP item 2).
    """

    @property
    def consistent(self) -> bool:
        return self.passed

    @property
    def commutes_with_all(self) -> bool:
        return all(c["exactZero"] for c in self.details["commutators"])

    def to_json_dict(self) -> dict:
        return self.details


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
    commutators, witnesses = [], []
    for name, other in zip(names, _distinguished(d, True)[0]):
        commutator = Commutator(t_phi, other)
        witness = None
        for p in window:
            col = commutator.column(p)
            if col:
                q = sorted(col)[0]
                witness = witness_dict(q, p, col[q])
                witnesses.append({"partner": name, **witness})
                break
        commutators.append({"partner": name, "exactZero": witness is None, "witness": witness})
    consistent = all(c["exactZero"] for c in commutators) == phi.is_analytic
    return ClassifyReport(consistent, {
        "check": "analytic-classification",
        "verdict": pass_fail(consistent),
        "symbolAnalytic": phi.is_analytic,
        "commutators": commutators,
    }, witnesses)


# -- floating norms -----------------------------------------------------------

# Largest dense window matrix the float lane builds, counted as rows x
# columns before any assembly: 64 MB of complex entries, and as much again
# for norm_estimate's a^H a.  The largest the tests, the CLI goldens and the
# benchmark workloads build is 455^2 (a d = 3 lift_verify test); the
# largest in cli-suites is 286^2 (its d = 3 decay).
MAX_DENSE_ENTRIES = 2 ** 22


def _require_dense(n: int, what: str) -> None:
    """Raise MarginError if an n x n dense window matrix is over MAX_DENSE_ENTRIES."""
    require_budget(n * n, MAX_DENSE_ENTRIES, "dense",
                   f"{what} of {n} members needs a dense {n}x{n} matrix of {n * n} entries",
                   "use a smaller window")


def norm_estimate(m, iterations: int = 100, seed: int = 42) -> float:
    """Seeded power-iteration lower bound for the largest singular value.

    Rayleigh quotients of A^*A are nondecreasing along the iteration, so
    more iterations never lower the estimate.  A zero window returns 0.0
    before any dense matrix is built, as the iteration would.
    """
    if isinstance(m, MatrixWindow):
        if m.is_zero():
            return 0.0
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
    # one buffer per vector, and np.linalg.norm's own operations on y's parts
    y = np.empty_like(x)
    yr, yi = y.real, y.imag
    for _ in range(iterations):
        np.matmul(b, x, out=y)
        ny = math.sqrt(yr.dot(yr) + yi.dot(yi))
        if ny < 1e-300:
            return 0.0
        np.divide(y, ny, out=x)
    r = float(np.real(np.vdot(x, b @ x)))
    return math.sqrt(max(r, 0.0))


def lift_verify(phi: Symbol, windows, seed: int = 42,
                grid_size: int = 128, tol: float = 1e-9) -> Report:
    """Compression/lift consistency of T_phi inside Laurent windows.

    For each window: the analytic-square block of the Laurent matrix must
    equal the Toeplitz matrix exactly, and the windowed Toeplitz norm may
    not exceed the windowed Laurent norm (floating tolerance).  Both norm
    sequences are nondecreasing over increasing windows and approach the
    sampled sup norm of the symbol from below.  A window whose dense matrix
    is over MAX_DENSE_ENTRIES raises MarginError before any sampling.
    """
    windows = list(windows)
    _require_dense(max((len(w) for w in windows), default=0), "the largest lift window")
    # sampling next: a grid over the sampling cap fails before any assembly
    sampled_sup = phi.sup_norm_sampled(grid_size)
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
        block = {(q, p): v for (q, p), v in lm.keyed_entries().items()
                 if q.is_analytic and p.is_analytic}
        rows.append({"maxTop": w.max_top, "minBottom": w.min_bottom,
                     "toeplitzNorm": norm_estimate(tm, 200, seed),
                     "laurentNorm": norm_estimate(lm, 200, seed),
                     "blockOk": block == tm.keyed_entries()})
    t_norms = [r["toeplitzNorm"] for r in rows]
    l_norms = [r["laurentNorm"] for r in rows]
    chain_ok = all(t <= lo + tol for t, lo in zip(t_norms, l_norms))
    monotone_ok = all(a <= b + tol for norms in (t_norms, l_norms)
                      for a, b in zip(norms, norms[1:]))
    passed = chain_ok and monotone_ok and all(r["blockOk"] for r in rows)
    return Report(passed, {
        "check": "laurent-lift",
        "verdict": pass_fail(passed),
        "sampledSup": sampled_sup,
        "windows": rows,
        "chainOk": chain_ok,
        "monotoneOk": monotone_ok,
    }, [], t_norms)
