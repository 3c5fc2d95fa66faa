"""Operator matrices on the antisymmetrized Hardy space.

The matrix element of a multiplication-type operator with symmetric
symbol phi between normalized antisymmetrized basis vectors is

    <T_phi e_p, e_q> = sum_{sigma} sgn(sigma) * alpha_{q_sigma - p},

where alpha is the coefficient of phi at a lattice point (read off at
the point's orbit representative) and the sum runs over coordinate
permutations of q.  Toeplitz, Laurent, Hankel and dual-Toeplitz kinds
share this formula and differ only in their row/column index sets.

Each operator kind defines only the exact, finitely supported image of
a basis vector, cached by OperatorSpec as ``column``.  ``apply`` and the
one composed kind behind sums, commutators and product defects add their
terms' signed images into one dict in place, making no product by the
shared ONE.  The distinguished tuple of the Brown-Halmos relations is
Toeplitz or DualToeplitz of the elementary symbols s_i and their
conjugates, whose columns come from the same symbol kernel; the tuple is
built once per dimension and side.  The residuals step along its adjoint
columns: all d residual columns at p come from one walk over T's
diagonal-step column, whose rows' adjoint steps are memoized per row for
the process; no truncated matrix product decides exactness.  Every
kernel deletes an entry the moment it cancels, so no column holds a zero.
A symbol column reads the adjacent gaps of each p + x as p's gaps plus
x's gap offsets, tabled per operator: it adds a strict p + x on its row
side as it stands, drops an adjacent tie or an off-side strict term before
building it, and antisymmetrizes only the rest.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, sub

import numpy as np

from .errors import DomainError, MarginError, NotToeplitzError, require_budget
from .partitions import (
    Partition,
    Window,
    analytic_window,
    antisymmetrize,
    shift,
    signed_index_permutations,
)
from .scalars import ONE, ZERO, ComplexRational
from .symbols import Symbol, elementary, multiply


def _as_partition(p) -> Partition:
    return p if isinstance(p, Partition) else Partition(p)


# -- exact sparse vectors (Partition -> ComplexRational) -------------------

def _accumulate(acc: dict, op: "OperatorSpec", vec: dict, sign: int) -> None:
    """Add sign * op(vec) into acc in place, deleting each entry that cancels.

    A zero coefficient of vec adds nothing, once its index is checked.  Each
    term c * v is made without a multiply when either factor is the shared
    ONE, as every value of a ShiftY or elementary-symbol column is.
    """
    get = acc.get
    column = op.column
    for p, v in vec.items():
        col = column(p)
        if not v:
            continue
        for q, c in col.items():
            w = v if c is ONE else c if v is ONE else c * v
            cur = get(q)
            if cur is None:
                acc[q] = w if sign > 0 else -w
            elif s := (cur + w if sign > 0 else cur - w):
                acc[q] = s
            else:
                del acc[q]


# -- operator kinds ---------------------------------------------------------


class OperatorSpec:
    """Base: exact entries, and column/apply over each kind's basis image _image(p).

    Each kind declares its row and column sides as data: True for the
    analytic side, False for the non-analytic one, None for both.
    """

    d: int
    _row_analytic: bool | None = None
    _col_analytic: bool | None = None

    def accepts_row(self, q: Partition) -> bool:
        return self._row_analytic in (None, q.is_analytic)

    def accepts_col(self, p: Partition) -> bool:
        return self._col_analytic in (None, p.is_analytic)

    def entry(self, q, p) -> ComplexRational:
        """<T e_p, e_q>, read off the cached column at p."""
        q = _as_partition(q)
        self._check_row(q)
        return self.column(p).get(q, ZERO)

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
        return acc

    def _check_row(self, q: Partition):
        if len(q) != self.d or not self.accepts_row(q):
            raise DomainError(f"{type(self).__name__} row index out of domain: {tuple(q)}")

    def _check_col(self, p: Partition):
        if len(p) != self.d or not self.accepts_col(p):
            raise DomainError(f"{type(self).__name__} column index out of domain: {tuple(p)}")


class _SymbolOperator(OperatorSpec):
    """Shared closed-form entry and basis image for multiplication-type kinds.

    The entry walks the signed index permutations, independently of the
    column, so the two can be checked against each other.
    """

    def __init__(self, symbol: Symbol):
        self.symbol = symbol
        self.d = symbol.d

    def entry(self, q, p) -> ComplexRational:
        q = _as_partition(q)
        p = _as_partition(p)
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

    # (x, its gap offsets x_j - x_{j+1}, x[-1], c) per lattice term x, built by the first column
    _gap_terms = None

    def _image(self, p: Partition) -> dict:
        keep = self._row_analytic
        terms = self._gap_terms
        if terms is None:
            terms = self._gap_terms = [(x, tuple(map(sub, x, x[1:])), x[-1], c)
                                       for x, c in self.symbol.lattice_terms()]
        gaps, low = tuple(map(sub, p, p[1:])), p[-1]
        acc: dict = {}
        for x, offsets, last, c in terms:
            gap = min(map(add, gaps, offsets))  # > 0: p + x is strict as it stands; 0: a tie
            if gap > 0:
                if keep is not None and (low + last >= 0) != keep:
                    continue
                sign, part = 1, Partition._unsafe(map(add, p, x))
            elif gap:
                sign, part = antisymmetrize(tuple(map(add, p, x)))
                if not sign or keep is not None and (part[-1] >= 0) != keep:
                    continue
            else:
                continue
            cur = acc.get(part)
            if cur is None:
                acc[part] = c if sign > 0 else -c
            elif s := (cur + c if sign > 0 else cur - c):
                acc[part] = s
            else:
                del acc[part]
        return acc

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
    _row_analytic = _col_analytic = True

    def __init__(self, d: int, j: int):
        if d < 2:
            raise DomainError("shift needs d >= 2")
        if not 1 <= j <= d - 1:
            raise DomainError(f"shift index must satisfy 1 <= j <= d-1, got {j}")
        self.d = d
        self.j = j

    def _image(self, p: Partition) -> dict:
        return {shift(p, 1, self.j): ONE}

    def __repr__(self):
        return f"ShiftY(d={self.d}, j={self.j})"


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

    def _image(self, p: Partition) -> dict:
        return self._cols.get(p, {})

    def __repr__(self):
        terms = sum(len(col) for col in self._cols.values())
        return f"FiniteRank(d={self.d}, terms={terms})"


class _Composed(OperatorSpec):
    """Signed sum of products: its column at p sums sign * outer(inner e_p) over
    its (sign, outer, inner) terms, where an inner None stands for outer alone."""

    def __init__(self, terms):
        self._terms = tuple(terms)
        self.d = self._terms[0][1].d

    def accepts_row(self, q: Partition) -> bool:
        return all(outer.accepts_row(q) for _, outer, _ in self._terms)

    def accepts_col(self, p: Partition) -> bool:
        return all((inner or outer).accepts_col(p) for _, outer, inner in self._terms)

    def _image(self, p: Partition) -> dict:
        acc: dict = {}
        for sign, outer, inner in self._terms:
            _accumulate(acc, outer, {p: ONE} if inner is None else inner.column(p), sign)
        return acc


class OpSum(_Composed):
    """Sum of operator specs sharing d."""

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise DomainError("empty operator sum")
        if any(op.d != ops[0].d for op in ops):
            raise DomainError("operator sum dimension mismatch")
        super().__init__((1, op, None) for op in ops)
        self.ops = ops

    def __repr__(self):
        return f"OpSum({list(self.ops)!r})"


class Commutator(_Composed):
    """[A, B] = AB - BA, composed from the exact column maps of A and B."""

    def __init__(self, a: OperatorSpec, b: OperatorSpec):
        if a.d != b.d:
            raise DomainError("commutator dimension mismatch")
        super().__init__(((1, a, b), (-1, b, a)))
        self.a, self.b = a, b


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
            if i is not None:
                entries[(i, j)] = v
    return MatrixWindow(rows, cols, entries)


# -- Brown-Halmos residuals ---------------------------------------------------


@lru_cache(maxsize=None)
def _distinguished(d: int, analytic: bool) -> tuple[tuple, tuple]:
    """The distinguished tuple (Z_1, ..., Z_d) of one side, and its adjoints.

    Analytic side: Z_i = T_{s_i} with adjoint T_{conj s_i}.  Non-analytic
    side: Z_i = DT_{conj s_i} with adjoint DT_{s_i}.  Z_d moves every index
    along the diagonal, up on the analytic side and down on the other.
    Memoized for the process, so the operators' column caches serve every
    residual and commutator with the tuple; the adjoints cache no column,
    as _adjoint_steps alone reads them.
    """
    kind = Toeplitz if analytic else DualToeplitz
    coordinates = [elementary(d, i) for i in range(1, d + 1)]
    up = tuple(kind(s) for s in coordinates)
    down = tuple(kind(s.conjugate()) for s in coordinates)
    return (up, down) if analytic else (down, up)


@lru_cache(maxsize=None)
def _adjoint_steps(q: Partition, analytic: bool) -> tuple:
    """(k, r) over the rows r of Z_{k+1}^* e_q, k = 0..d-1, for the tuple on q's side.

    Every value of those columns is 1.  Memoized for the process: the
    batteries check many operators over the same rows.  As this memo is the
    columns' one reader, it builds them uncached; the caller checked q's side.
    """
    adjoints = _distinguished(len(q), analytic)[1]
    return tuple((k, r) for k, z in enumerate(adjoints) for r in z._image(q))


def bh_residual_column(T: OperatorSpec, i: int, p, _made=None) -> dict:
    """Exact column at p of the i-th Brown-Halmos residual of T.

    The side of the model is that of p.  With that side's distinguished
    tuple Z, the residual is Z_i^* T Z_d - T Z_{d-i} for 1 <= i <= d-1 and
    Z_d^* T Z_d - T for i = d: the Toeplitz relations on the analytic
    side, the dual Toeplitz relations on the non-analytic complement.
    Z_d e_p = e_{p + sigma*1} (sigma = 1 on the analytic side, else -1) and
    every value of Z's columns is 1, so all d residuals at p come from one
    walk over T's column at p + sigma*1, each value added at the rows of its
    row's adjoint columns Z_k^* e_q into residual k, and from T's columns at
    the rows of Z_{d-k} e_p (at p itself for k = d), each subtracted from
    residual k.  Every row of that walk is checked to lie on p's side; its
    adjoint steps are memoized per row (_adjoint_steps).  A call makes all d
    residuals at p, and keeps them in the per-window dict ``_made`` if given.
    """
    d = T.d
    if not 1 <= i <= d:
        raise DomainError(f"residual index must satisfy 1 <= i <= d, got {i}")
    p = _as_partition(p)
    made = {} if _made is None else _made
    cols = made.get(p)
    if cols is None:
        analytic = p[-1] >= 0
        cols = [{} for _ in range(d)]  # cols[k] accumulates residual k + 1
        for q, v in T.column(shift(p, 1 if analytic else -1)).items():
            if (q[-1] >= 0) != analytic:
                raise DomainError(f"residual row {tuple(q)} is off the side of {tuple(p)}")
            for k, r in _adjoint_steps(q, analytic):
                acc = cols[k]
                cur = acc.get(r)
                if cur is None:
                    acc[r] = v
                elif s := cur + v:
                    acc[r] = s
                else:
                    del acc[r]
        z = _distinguished(d, analytic)[0]
        for k, acc in enumerate(cols, start=1):
            for t in z[d - k - 1].column(p) if k < d else (p,):
                for q, c in T.column(t).items():
                    cur = acc.get(q)
                    if cur is None:
                        acc[q] = -c
                    elif cur is c or cur == c:
                        del acc[q]
                    else:  # an unequal difference is nonzero
                        acc[q] = cur - c
        made[p] = cols
    return cols[i - 1]


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
    A residual's rows widen to its columns' support when it vanishes on the
    window alone, so that a thin window keeps the witness of a non-Toeplitz T.
    """
    if window.d != T.d:
        raise DomainError("window dimension does not match operator")
    if len({p.is_analytic for p in window}) > 1:
        raise DomainError("Brown-Halmos residuals need a window on one side of the model")
    made: dict = {}
    mats = []
    for i in range(1, T.d + 1):
        columns = {p: bh_residual_column(T, i, p, made) for p in window}
        m = matrix_from_columns(columns, window, window)
        if m.is_zero() and any(columns.values()):
            members = set(window).union(*columns.values())
            rows = Window(window.d, max(q[0] for q in members), min(q[-1] for q in members),
                          members)
            m = matrix_from_columns(columns, rows, window)
        mats.append(m)
    return mats


# -- symbol recovery ---------------------------------------------------------


def recover_symbol(oracle, d: int, degree_bound: int) -> Symbol:
    """Unique symbol of height <= degree_bound matching a Toeplitz entry oracle.

    oracle: an entry callable (q, p) -> ComplexRational on analytic pairs,
    such as ``Toeplitz(phi).entry``.  Probe pairs q = (K d, ..., K),
    p = q - m_ascending with K = 2*degree_bound + 2 push every
    off-identity permutation term outside the height bound, so each probe
    reads one coefficient directly.  The oracle is then compared exactly
    with Toeplitz(recovered) on analytic_window(d, degree_bound + d + 1).
    That window holds every entry the Brown-Halmos relations read on
    analytic_window(d, degree_bound + d), and the recovered operator's
    residuals vanish, so an oracle with a nonzero residual there disagrees
    with it somewhere in the window.  An oracle that cannot serve a probe
    or a window entry raises MarginError; the window is built first, so its
    size cap bounds the probes too.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    window = analytic_window(d, degree_bound + d + 1)

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
    for p in window:
        expected = model.column(p)
        for q in window:
            try:
                got = oracle(q, p)
            except (DomainError, KeyError, IndexError) as exc:
                raise MarginError(
                    "oracle cannot serve the verification window"
                ) from exc
            if got != expected.get(q, ZERO):
                raise NotToeplitzError(
                    f"oracle disagrees with recovered symbol at ({tuple(q)}, {tuple(p)}); "
                    "not a Toeplitz operator within the degree bound"
                )
    return recovered


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
    h_phibar = Hankel(phi.conjugate())
    # H_{conj phi}^* with rows on the window: the transposed, conjugated columns
    h_phibar_adj = FiniteRank(phi.d, ((q, r, v.conjugate()) for q in window
                                      for r, v in h_phibar.column(q).items()))
    defect = _Composed(((1, Toeplitz(phi), Toeplitz(psi)),
                        (-1, Toeplitz(multiply(phi, psi)), None),
                        (1, h_phibar_adj, Hankel(psi))))
    return assemble(defect, window, window)


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

# Largest dense window matrix the float lane builds (a lift or decay
# window, or eta's stack of d windows), counted as rows x columns before any
# assembly: 64 MB of complex entries, and as much again for norm_estimate's
# a^H a.  The largest the tests, the CLI goldens and the benchmark workloads
# build is 455^2 (a d = 3 lift_verify test); the largest in cli-suites is
# 286^2 (its d = 3 decay).
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
    before any dense matrix is built, as the iteration would.  A^*A, an
    iterate or the estimate that overflows double precision raises
    DomainError.
    """
    if isinstance(m, MatrixWindow):
        if m.is_zero():
            return 0.0
        a = m.to_dense()
    else:
        a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    overflow = DomainError("the norm estimate overflows double precision")
    with np.errstate(over="ignore", invalid="ignore"):
        b = a.conj().T @ a
        if not np.isfinite(b).all():
            raise overflow
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
            if not ny < math.inf:  # else the next iterate is 0 and the estimate 0.0
                raise overflow
            np.divide(y, ny, out=x)
        r = float(np.real(np.vdot(x, b @ x)))
    if not math.isfinite(r):
        raise overflow
    return math.sqrt(max(r, 0.0))


def lift_verify(phi: Symbol, windows, seed: int = 42,
                grid_size: int = 128, tol: float = 1e-9) -> Report:
    """Compression/lift consistency of T_phi inside Laurent windows.

    For each window: the analytic-square block of the Laurent matrix must
    equal the Toeplitz matrix exactly, and the windowed Toeplitz norm may
    not exceed the windowed Laurent norm (floating tolerance).  Both norm
    sequences are nondecreasing over increasing windows, and every norm is
    at most sup |phi|, so at most supUpper, the upper bound from the one
    sampling pass (Symbol.sup_norm_sampled).  All three comparisons allow the
    one slack tol * max(1, supUpper).  A window whose dense matrix is over
    MAX_DENSE_ENTRIES raises MarginError before any sampling.
    """
    windows = list(windows)
    _require_dense(max((len(w) for w in windows), default=0), "the largest lift window")
    # sampling next: a grid over the sampling cap fails before any assembly
    sampled_sup, sup_upper = phi.sup_norm_sampled(grid_size)
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
    # one relative slack: norms of size s round apart by a few ulps of s
    slack = tol * max(1.0, sup_upper)
    chain_ok = all(t <= lo + slack for t, lo in zip(t_norms, l_norms))
    monotone_ok = all(a <= b + slack for norms in (t_norms, l_norms)
                      for a, b in zip(norms, norms[1:]))
    norm_bound_ok = all(x <= sup_upper + slack for x in t_norms + l_norms)
    passed = chain_ok and monotone_ok and norm_bound_ok and all(r["blockOk"] for r in rows)
    return Report(passed, {
        "check": "laurent-lift",
        "verdict": pass_fail(passed),
        "sampledSup": sampled_sup,
        "supUpper": sup_upper,
        "windows": rows,
        "chainOk": chain_ok,
        "monotoneOk": monotone_ok,
        "normBoundOk": norm_bound_ok,
    }, [], t_norms)
