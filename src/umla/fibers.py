"""Fiber integration along one-variable polynomial maps.

For a polynomial map f: K -> K and a cell function phi, the pushforward
density at a regular value y is the finite sum

    f_!(phi)(y) = sum over the fiber f(x) = y of phi(x) / |f'(x)|,

the density of the image measure of phi |dx| under f with respect to |dy|.
The engine behind it finds fiber points by adaptive refinement of residue
cells, each decided exactly, on integer codes of the cell centres: once a
cell is known to hold one root, the walk descends through the one child
that holds it down to the requested level (a Hensel descent), and reports
the exact valuation of f' at every root.

The critical-value set of f (zeros of the discriminant of f(x) - y in y) is
where fibers collide; ``fiber_integrate`` refuses those y exactly.  Away
from it, f_!(phi) is locally constant, and ``level_measure`` measures how
the level of local constancy depends on the distance to the critical values
and on the refinement of phi, reporting the measurements together with a
dominating affine bound.  Both run one kernel for the value at a regular y
(``_pushforward_value``) on a root search (``_Search``) that holds what
does not depend on y: the codes format, the folds of f_K' and of the
y-free part of f_K - y, and the ords of the coefficients of f_K - y of
degree >= 1.  ``fiber_integrate`` builds a search for its one y,
``level_measure`` one per restriction of phi for all its scanned centres;
each base point then adds only its term -y and reads the ord of the
constant coefficient.  The search hands the kernel each root as an integer
walk code (``_Search.root_codes``), and the kernel reads phi's cell code
straight off it (``residue_code`` of the codes, the bridge of the ``polys``
module docstring): field elements of roots are built only for
``padic_roots`` and for the centre that ClusterUnresolved reports.  Both
value paths read ord disc_K(y), which refuses a critical y and bounds the
search's depth, the same way: on the search's codes for y
(``_Search.ord_at``), from the ``int_form`` of disc_K that
``FiberProblem.reduced`` keeps as the third of its forms.  phi's support
and constancy level are read off its normal form, which phi keeps
(``SchwartzBruhat.normalized``).

The critical-value data is read in the field.  Over F_p((t)) the map is f
with its coefficients reduced mod p, and it has a lower degree where p
divides lc(f): 3x^2 + x is the etale map x over F_3((t)).  So
``FiberProblem.reduced`` keeps, per field K, the map f_K (f itself over
Q_p; over F_p((t)) its coefficients mod p with the zero leading ones
stripped) and its discriminant disc_K, and every critical-value test, the
critical locus and the root search read disc_K.

The root search works in x-coordinates.  It finds the roots x of
h = f_K - y with ord x >= w, the window, on cells B_L(a) with L >= w.  Let
h_i be the coefficients of h, n = deg h, and c = min_i (ord h_i + i w) the
least ord of a term h_i x^i on the window.  Every Taylor coefficient
h^(i)(a) / i! = sum_j C(j, i) h_j a^(j-i) has ord >= c - i w, so for
ord e >= L the terms of degree i >= 2 of h(a + e) have ord
>= c + 2 (L - w).  Write v' = ord h'(a).

- A cell that holds a root a + e has ord h(a) >= c + L - w, the least ord
  of the terms of degree >= 1; the search keeps only such cells.
- Once L - 2 w + c > v', h(a + e) = h(a) + h'(a) e modulo terms of
  ord > L + v', so h maps B_L(a) one-to-one onto B_{L+v'}(h(a)): the cell
  is decided, and it holds one root exactly when ord h(a) >= L + v'.
- Deep enough, every kept cell is decided.  g(u) = pi^(-c) h(pi^w u) has
  integral coefficients, so Res(g, g') = U g + V g' with U and V integral.
  At a kept undecided cell, u = a / pi^w, ord g(u) = ord h(a) - c and
  ord g'(u) = v' + w - c are both at least L - w, so
  L - w <= ord Res(g, g').

At w = 0 and c = 0 these are the classical tests: ord h(a) >= L, and
L > v'.  The search needs the bound only for a cell still undecided at its
precision, and at a base point y it reads ord Res(g, g') off
ord disc_K(y); g is never built.  disc_K is the Sylvester determinant of
f_K(x) - y and f_K'(x) over Z[y] at the degrees (n, n - 1), and a
determinant commutes with the ring map Z[y] -> K that fixes y, so
disc_K(y) = Res(h, h') at the formal degrees (n, n - 1) over K, also where
K kills n and the zero leading entry of h' stays in the matrix.
(Res(h, h') and disc h differ only by +-lc(h); Cohen, A Course in
Computational Algebraic Number Theory, 1993, 3.3.2.)  With
g'(u) = pi^(w-c) h'(pi^w u): at formal degrees (m, k) the Sylvester
determinant is homogeneous of degree k in the first polynomial's
coefficients and of degree m in the second's, and
Res(A(s x), B(s x)) = s^(m k) Res(A, B); both are identities of the
determinant, so they hold at formal degrees.  With (m, k) = (n, n - 1):

    Res(g, g') = pi^(-c (n - 1)) pi^((w - c) n) pi^(w n (n - 1)) disc_K(y),
    ord Res(g, g') = ord disc_K(y) + w n^2 - c (2 n - 1),

and every kept cell deeper than w + ord Res(g, g') is decided.

``padic_roots`` searches its own integer polynomial as h and reads the
same discriminant of its reduction at y = 0, and ``level_measure`` finds
the critical values as the roots of an integer polynomial
(``_critical_values``), so every search reads its resultant off a
discriminant, at the degree of its polynomial in the field.

``level_measure`` runs its scan on integer codes.  Its centres are the
canonical truncations at the resolution R of the window, and the critical
values of ord >= lo = min(window, 0) are cut at R, so all of them have
their digits in [lo, R).  Each gets its code
``field.residue_code(c, lo)`` = sum_i c_i q^(i - lo) once, the base-q
digit string of c read from lo, for both field kinds.  On codes:

- the truncation of c at a level L >= lo has the code code_c mod q^(L - lo);
- ord(c - z) = lo + v_p(code_c - code_z).  Over Q_p, c - z is
  (code_c - code_z) p^lo.  Over F_p((t)), c and z agree in their digits
  below the first one that differs, lo + i, so code_c - code_z is p^i times
  an integer congruent to c_(lo+i) - z_(lo+i), not 0, mod p: the carries of
  the integer subtraction only reach the digits above.  So c is at
  proximity <= eps from z exactly when code_c and code_z differ mod
  q^(eps + 1 - lo), the exponent clamped at 0: for eps < lo, every such z
  is at proximity >= lo > eps from every centre;
- a critical value z of ord < lo is at proximity ord z from every centre,
  whose ord is at least the window, so the largest such ord excludes every
  centre at each eps below it and none at or above it.

The value tables and the search for the level mu are keyed by the centre's
index and code: mu is the least level L >= lo at which the groups of
code mod q^(L - lo) each hold one value.  ord disc_K(y) is read on the codes
that the scan's first root search holds for y, the disc's ``int_form``
being among the search's forms so that it fixes the codes' width too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from .cyclo import CycloScalar
from .fields import INF, FieldError, LocalField, Polyball, field_from_json
from .polys import (
    MultiPoly,
    critical_value_locus,
    field_int_ord,
    int_form,
    parse_poly,
    squarefree_ints,
    walk_codes,
)
from .schwartz import DEFAULT_CELL_BUDGET, SchwartzBruhat, check_budget

__all__ = [
    "ClusterUnresolved",
    "OnDiscriminant",
    "FiberProblem",
    "LevelReport",
    "padic_roots",
    "fiber_integrate",
    "level_measure",
    "poly_to_string",
]


class ClusterUnresolved(FieldError):
    """The polynomial has a repeated root, so a residue cell holding a root
    cluster cannot be certified at any precision."""

    def __init__(self, field: LocalField, center, level: int):
        super().__init__(
            f"cannot separate roots inside the level-{level} cell at "
            f"{field.element_to_json(center)}: the polynomial has a repeated root"
        )
        self.center = center
        self.level = level


class OnDiscriminant(FieldError):
    """The requested base point is a critical value of the map."""

    def __init__(self, field: LocalField, y):
        super().__init__(
            f"base point {field.element_to_json(y)} is a critical value; "
            "the fiber is not simple there"
        )
        self.y = y


def poly_to_string(f: MultiPoly, var: str = "x") -> str:
    """One-variable rendering compatible with the polynomial parser."""
    if f.n != 1:
        raise FieldError("only one-variable polynomials have a chart rendering")
    parts = []
    for exps, coef in sorted(f.coeffs.items(), reverse=True):
        e = exps[0]
        body = var if e == 1 else f"{var}^{e}" if e else ""
        mag = abs(coef)
        head = str(mag) if (mag != 1 or not body) else ""
        sep = "*" if head and body else ""
        text = f"{head}{sep}{body}"
        parts.append(("- " if coef < 0 else "+ ") + text)
    if not parts:
        return "0"
    first = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([first] + parts[1:])


# ---------------------------------------------------------------------------
# root finding: residue search + certified Hensel descent
# ---------------------------------------------------------------------------


def _elem_sort_key(x):
    """Deterministic ordering key for canonical field elements."""
    return x.coeffs if hasattr(x, "coeffs") else x


def _fold_split(codes, form: tuple) -> tuple[list, list]:
    """``form``, an ``int_form`` in (x, *fixed) of total degree m, with the
    powers of the walk's ``den`` d multiplied in: (free, terms).  ``free``
    is the dense form in x (``polys._Codes``) of the terms free of the fixed
    coordinates, entry i summing c_e d^(m - i) over the exponents
    e = (i, 0, ..., 0); ``terms`` lists the others as (i, c_e d^(m - |e|),
    rest(e)), e = (i, *rest(e)).  Neither depends on the fixed codes."""
    cs, m = form
    dpow = [1]
    for _ in range(m):
        dpow.append(dpow[-1] * codes.den)
    free = [0] * (m + 1)
    terms = []
    for e, c in cs.items():
        c *= dpow[m - sum(e)]
        if any(e[1:]):
            terms.append((e[0], c, e[1:]))
        else:
            free[e[0]] += c
    return free, terms


def _fold_at(free: list, terms: list, fixed: tuple) -> list:
    """The fold of a ``_fold_split`` form at the codes ``fixed`` of the
    fixed coordinates: the dense form in x whose entry i sums
    c_e fixed^rest(e) d^(m - |e|) over the exponents e = (i, *rest)."""
    if not terms:
        return free
    out = list(free)
    for i, c, rest in terms:
        for x, j in zip(fixed, rest):
            if j:
                c *= x**j
        out[i] += c
    return out


class _Search:
    """The root search of h = ``forms[0]`` (see ``roots``) at the base
    points ``bases``, each a tuple of elements for the fixed coordinates.

    ``forms`` are the ``int_form`` of h(x, *fixed) and of dh/dx, integer
    forms in x and the fixed coordinates, and of any polynomial in the fixed
    coordinates alone that a caller reads at the base points (``ord_at``);
    every form fixes the codes' width over F_p((t)).  Roots are sought with
    ord x >= ``window`` and truncated at level ``k`` > window.

    What does not depend on the base point is set up once, for all of
    them: one ``walk_codes`` format, with least radius the window and
    deepest level k + 1, that holds the codes of every base point; each
    form split at its ``den`` (``_fold_split``) into its dense part free of
    the fixed coordinates and its other terms; and the ords of the entries
    of h that no fixed coordinate reaches.  A base point then adds only
    its own terms (``_fold_at``) and reads the ords of the entries they
    reach.  For h = f_K(x) - y that is the one term -y of entry 0, and
    dh/dx = f_K' holds no fixed coordinate at all.  A level scan builds
    one search for all its centres, ``fiber_integrate`` and ``padic_roots``
    a one-point search.
    """

    __slots__ = ("field", "forms", "window", "k", "codes", "shared")

    def __init__(self, field: LocalField, forms, bases, window: int, k: int):
        if k <= window:
            raise FieldError("precision must exceed the search window")
        self.field, self.forms, self.window, self.k = field, forms, window, k
        fixed = [x for base in bases for x in base]
        self.codes = walk_codes(field, fixed, window, k + 1, forms)
        self.shared = self._shared(self.codes)

    def _shared(self, codes) -> tuple:
        """(split h, split dh/dx, ords of the entries of h): the part of the
        search that depends on the codes' format alone.  Entry i of h is a
        constant form of degree m - i; the ords of those that a fixed term
        reaches are left for the base point."""
        (g, terms), gp = (_fold_split(codes, form) for form in self.forms[:2])
        m = self.forms[0][1]
        ords = [codes.value_ord(c, m - i) for i, c in enumerate(g)]
        return (g, terms), gp, ords

    def roots(self, base: tuple, res_ord) -> list:
        """Roots x of h(x, *base) with ord x >= window, as (truncation,
        ord h'(x)); ``base`` is one of the search's base points.

        Returns one pair per root: its level-k truncation (distinct roots
        may share one) and the exact valuation of h' there, sorted by
        truncation.  The roots are those of ``root_codes``, decoded; this
        and the centre that ClusterUnresolved reports are the only field
        elements a search builds.
        """
        field, k = self.field, self.k
        found = []
        for codes, a, level, vpa in self.root_codes(base, res_ord):
            root = codes.element(a)
            if level > k:
                root = field.canon_trunc(root, k)
            found.append((root, vpa))
        return sorted(found, key=lambda item: (_elem_sort_key(item[0]), item[1]))

    def root_codes(self, base: tuple, res_ord) -> list:
        """The roots of ``roots`` on codes, in no set order: one
        (codes, code, level, ord h'(x)) per root, ``code`` the centre of the
        level-``level`` cell that holds it, level >= k, canonical in the
        format ``codes``.  Each root carries its format, since a search
        over F_p((t)) may start again on codes of its own (below).

        The cells B_L(a), L >= window, are refined from B_window(0), kept
        and decided by the tests of the module docstring, which read the
        content c off the coefficients of h.  A decided cell holds one root
        exactly when ord h(a) >= L + v', and a cell that holds one is
        followed down to level k through the one child that holds it (a
        Hensel descent): h(a + d pi^L) = h(a) + h'(a) d pi^L modulo terms
        of ord > L + v', so the child's digit is
        d = -(h(a) / pi^(L+v')) (h'(a) / pi^v')^(-1) mod pi, one ``digit``
        of each; h'(a) / pi^v' mod pi is the same on every deeper cell, so
        it is inverted once per root.  A cell decided deeper than k is
        returned at its own level, and its level-k truncation is the root's.
        Raises ClusterUnresolved only when Res(h, h') = 0, i.e. h
        has a repeated root, and a cell is still undecided at level k.
        Only then is the bound on the undecided cells needed: ``res_ord``
        returns ord Res(h, h') at the formal degrees (n, n - 1), n = deg h
        in the field (see ``_ord_resultant``).

        Every cell evaluates a dense form in x by Horner steps, and the
        codes read each ord and each Hensel ``digit`` off one such
        evaluation.  Over F_p((t)) the codes hold the digits below their
        ``limit``; a base point whose search must split a cell at that
        depth starts again, alone, with codes that reach the bound on the
        undecided cells, which no split exceeds.
        """
        field, window, k, forms = self.field, self.window, self.k, self.forms
        q, m = field.q, forms[0][1]
        codes, shared = self.codes, self.shared
        res = None  # the ord Res bound, read once a cell reaches level k
        while True:
            (free, terms), gp_split, ords = shared
            nums = tuple(map(codes.code, base))
            g = (_fold_at(free, terms, nums), m)
            gp = (_fold_at(*gp_split, nums), forms[1][1])
            # ord h_i for the entries this base point reaches; n = deg h
            # and c, the least ord of a term h_i x^i on the window
            if terms:
                ords = list(ords)
                for i, _, _ in terms:
                    ords[i] = codes.value_ord(g[0][i], m - i)
            n = max((i for i, o in enumerate(ords) if o != INF), default=None)
            if n is None:
                raise FieldError("the zero polynomial has no root locus")
            content = min(o + i * window for i, o in enumerate(ords))
            decided = content - 2 * window  # B_L(a) is decided once L + this > v'
            survives = content - window  # a root in B_L(a) needs ord h(a) >= L + this
            found = []
            cells = [(0, window, codes.ord(g, (0,)))]
            while cells:
                a, level, va = cells.pop()
                vpa = codes.ord(gp, (a,))
                if level + decided > vpa:
                    if va >= level + vpa:
                        if level < k:
                            inv = pow(codes.digit(gp, (a,), vpa), -1, q)
                        while level < k:
                            d = -codes.digit(g, (a,), level + vpa) * inv % q
                            a = codes.child_codes(a, level, level + 1)[d]
                            level += 1
                        found.append((codes, a, level, vpa))
                    continue
                if level >= k:
                    if res is None:
                        res = _ord_resultant(n, window, content, res_ord)
                    if res == INF:
                        raise ClusterUnresolved(field, codes.element(a), level)
                    if level >= codes.limit:
                        # no cell deeper than window + res splits
                        hi = window + res + 1
                        codes = walk_codes(field, base, window, hi, forms)
                        shared = self._shared(codes)
                        break
                for child in codes.child_codes(a, level, level + 1):
                    vc = codes.ord(g, (child,))
                    if vc >= level + 1 + survives:
                        cells.append((child, level + 1, vc))
            else:
                return found

    def ord_at(self, form: tuple, base: tuple):
        """ord of ``form``, one of ``forms`` past the first two, an
        ``int_form`` in the fixed coordinates alone, at the base point
        ``base``, read on the search's codes."""
        codes = self.codes
        return codes.ord(form, tuple(map(codes.code, base)))


def _ord_resultant(n: int, window: int, content: int, res_ord) -> int:
    """ord Res(g, g') for g(u) = pi^(-content) h(pi^window u), h of degree
    n, from ``res_ord`` (ord Res(h, h'); see the module docstring)."""
    return res_ord() + window * n * n - content * (2 * n - 1)


def _coerce_poly(g) -> MultiPoly:
    if isinstance(g, MultiPoly):
        if g.n != 1:
            raise FieldError("root search expects a one-variable polynomial")
        return g
    if isinstance(g, str):
        return parse_poly(g, ("x",))
    coeffs = {(i,): int(c) for i, c in enumerate(g) if int(c)}
    return MultiPoly(1, coeffs)


def padic_roots(g, field: LocalField, k: int, window: int = 0) -> list:
    """All roots of g with valuation >= window, truncated at level k.

    ``g`` is a one-variable polynomial over the integers (a ``MultiPoly``,
    a parseable string, or a coefficient sequence).  The result lists the
    canonical level-k truncations, deduplicated and deterministically
    ordered.  Raises ClusterUnresolved when g has a repeated root whose
    residue cell cannot be certified at level k.  The search reads its
    resultant, if it needs it, off the discriminant of g in the field at
    y = 0 (see the module docstring).
    """
    poly = _coerce_poly(g)
    forms = _search_forms(field, poly)

    def res_ord():
        disc = critical_value_locus(_reduce(field, poly))
        return field_int_ord(field, disc.coeffs.get((0,), 0))

    roots = _Search(field, forms, [()], window, k).roots((), res_ord)
    # one entry per truncation, in the sorted order of the pairs
    return list(dict.fromkeys(root for root, _ in roots))


# ---------------------------------------------------------------------------
# the fiber problem and exact pushforward values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberProblem:
    """A one-variable polynomial map with its critical-value data.

    ``f`` maps the line to the line; both sides carry the standard additive
    volume form.  ``disc`` is a polynomial in the base coordinate whose
    zeros in Q_p are exactly the critical values of f — the set away from
    which every fiber is finite with f' nonzero at each point.  A field
    reads its own discriminant, of f reduced there (``reduced``).
    """

    f: MultiPoly
    disc: MultiPoly = dc_field(init=False, compare=False)
    _reduced: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)
    _loci: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        coerced = _coerce_poly(self.f)
        object.__setattr__(self, "f", coerced)
        object.__setattr__(self, "disc", critical_value_locus(coerced))

    @classmethod
    def from_string(cls, src: str) -> "FiberProblem":
        return cls(parse_poly(src, ("x",)))

    def reduced(self, field: LocalField) -> tuple[MultiPoly, MultiPoly, tuple]:
        """(f_K, disc_K, forms), kept per field: f reduced into ``field``,
        the discriminant of f_K(x) - y in y (see the module docstring), and
        three ``int_form``s: of f_K(x) - y and of f_K'(x) in (x, y), which
        the root search evaluates at every base point y, and of disc_K(y),
        which the value paths read at a base point on the search's codes
        (``_Search.ord_at``).

        Over Q_p f_K and disc_K are f and ``disc``.  Over F_p((t)) f_K holds
        the coefficients of f mod p, with the zero leading ones stripped;
        FieldError when it is constant there.
        """
        got = self._reduced.get(field)
        if got is None:
            f_k = _reduce(field, self.f)
            disc = self.disc if f_k is self.f else critical_value_locus(f_k)
            h = MultiPoly(2, {(i, 0): c for (i,), c in f_k.coeffs.items()})
            forms = _search_forms(field, h - MultiPoly.var(2, 1))
            forms += (int_form(field, disc.coeffs),)
            got = self._reduced[field] = f_k, disc, forms
        return got

    def is_critical_value(self, field: LocalField, y) -> bool:
        """Whether disc_K(y) = 0; an int y is read as ``field.from_int(y)``."""
        if isinstance(y, int):
            y = field.from_int(y)
        return self.reduced(field)[1].ord_field(field, (y,)) == INF

    def critical_locus(self, field: LocalField) -> MultiPoly:
        """Squarefree part of disc_K over the prime field of ``field`` (Q
        or F_p), as an integer polynomial, kept per field
        (``squarefree_ints``).

        Its roots are the critical values, each simple, so the root search
        never meets a cluster there.  Squarefreeness is decided over the
        field: disc_K has a repeated root whenever two critical points
        share a critical value, and its reduction mod p can gain more.
        disc_K has integer coefficients, so its part has coefficients in
        the prime field, and it is taken there on integers: over Q its
        numerators over their least common denominator, over F_p its
        residues in [0, p).
        """
        locus = self._loci.get(field)
        if locus is None:
            disc = self.reduced(field)[1]
            coeffs = [disc.coeffs.get((i,), 0) for i in range(disc.degree_in(0) + 1)]
            char = 0 if field.kind == "p-adic" else field.p
            locus = self._loci[field] = _coerce_poly(squarefree_ints(coeffs, char))
        return locus

    def to_json(self) -> dict:
        return {"f": poly_to_string(self.f)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiberProblem":
        return cls.from_string(obj["f"])


def _value_search(forms, phi: SchwartzBruhat, ys) -> _Search:
    """The root search of the value kernel for phi, nonzero, at the base
    points ``ys``, for the map f_K in phi's field with the search ``forms``
    of ``FiberProblem.reduced``: fiber points in the window
    ord x >= min(support, 0), truncated at max(constancy, support + 1, 1),
    with (support, constancy) = phi.alpha_bounds().

    At that precision phi and |f'| are both exact on the truncations; the
    search counts every fiber point once, and since f - y is squarefree at
    a regular value it never meets a repeated root (ClusterUnresolved).
    """
    support, constancy = phi.alpha_bounds()
    window = min(support, 0)
    k = max(constancy, support + 1, 1)
    return _Search(phi.field, forms, [(y,) for y in ys], window, k)


def _phi_cells(phi: SchwartzBruhat) -> tuple:
    """(e, r, cells): the origin, the level and the code-keyed cells of the
    normal form of phi, one-variable and nonzero, which the value kernel
    reads phi by."""
    g = phi.normalized()
    (e,), cells = g._coded()
    return e, g.levels[0], cells


def _pushforward_value(search: _Search, phi_cells: tuple, y, disc_ord):
    """f_!(phi)(y) at a regular value y; ``search`` is the
    ``_value_search`` of phi, ``phi_cells`` its ``_phi_cells``, y one of the
    search's base points, and ``disc_ord`` returns ord disc_K(y).

    Each root comes as a walk code (``_Search.root_codes``), and phi's cell
    there is looked up at the residue code read off the walk code
    (``residue_code`` of the codes, the bridge of the ``polys`` module
    docstring).  The normal form's level r is at most the search's
    precision k, so the walk code's digits below r are the root's; a root
    with a digit below the origin e, or in no cell, adds nothing.  No field
    element is built, and the sum is canonical, so the roots need no
    order."""
    e, r, cells = phi_cells
    # 1/|f'(x)| = q^(ord f'(x)), with the doubled-exponent encoding; one
    # construction canonicalises the shifted raw terms of every point
    raw = []
    for codes, a, _, dorder in search.root_codes((y,), disc_ord):
        coef = cells.get((codes.residue_code(a, e, r),))
        if coef is not None:
            raw += coef.raw(2 * dorder)
    return CycloScalar(search.field.p, raw)


def fiber_integrate(problem: FiberProblem, phi: SchwartzBruhat, y) -> CycloScalar:
    """Exact value of f_!(phi) at a regular value y.

    Sums phi(x)/|f'(x)| over the fiber points x with f(x) = y inside the
    support of phi.  Raises OnDiscriminant when y is a critical value.
    """
    if phi.n != 1:
        raise FieldError("fiber integration works along one-variable charts")
    field = phi.field
    if isinstance(y, int):
        y = field.from_int(y)
    if phi.is_zero():
        if problem.is_critical_value(field, y):
            raise OnDiscriminant(field, y)
        return CycloScalar.zero(field.p)
    # the critical-value test reads ord disc_K(y) on the search's codes;
    # the root search reuses it
    forms = problem.reduced(field)[2]
    search = _value_search(forms, phi, [y])
    disc_ord = search.ord_at(forms[2], (y,))
    if disc_ord == INF:
        raise OnDiscriminant(field, y)
    return _pushforward_value(search, _phi_cells(phi), y, lambda: disc_ord)


# ---------------------------------------------------------------------------
# local-constancy levels against distance from the critical values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    """Measured local-constancy levels of f_!(phi) with an affine bound.

    ``rows`` maps (eps, m) to the minimal level mu such that the
    pushforward of phi restricted to the level-m ball at the probe center
    is constant on every level-mu cell of the scanned region at valuative
    distance at least q^-eps from the critical values.  The fitted
    (a, b, c) satisfy mu <= a*eps + b*m + c on every measured row.
    """

    f_text: str
    field: LocalField
    x0_json: object
    resolution: int
    window: int
    eps_values: tuple[int, ...]
    m_values: tuple[int, ...]
    rows: dict
    cells: dict
    fit: tuple[Fraction, Fraction, Fraction]

    def mu(self, eps: int, m: int) -> int:
        return self.rows[(eps, m)]

    def fit_dominates(self) -> bool:
        a, b, c = self.fit
        return all(
            Fraction(mu) <= a * eps + b * m + c
            for (eps, m), mu in self.rows.items()
        )

    def to_json(self) -> dict:
        a, b, c = self.fit
        return {
            "f": self.f_text,
            "field": self.field.to_json(),
            "x0": self.x0_json,
            "resolution": self.resolution,
            "window": self.window,
            "eps": list(self.eps_values),
            "m": list(self.m_values),
            "rows": [
                {
                    "eps": eps,
                    "m": m,
                    "mu": self.rows[(eps, m)],
                    "cells": self.cells[(eps, m)],
                }
                for eps in self.eps_values
                for m in self.m_values
            ],
            "fit": {"a": str(a), "b": str(b), "c": str(c)},
            "fit_dominates": self.fit_dominates(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LevelReport":
        rows = {}
        cells = {}
        for row in obj["rows"]:
            key = (int(row["eps"]), int(row["m"]))
            rows[key] = int(row["mu"])
            cells[key] = int(row["cells"])
        fit = obj["fit"]
        return cls(
            f_text=obj["f"],
            field=field_from_json(obj["field"]),
            x0_json=obj["x0"],
            resolution=int(obj["resolution"]),
            window=int(obj["window"]),
            eps_values=tuple(int(e) for e in obj["eps"]),
            m_values=tuple(int(m) for m in obj["m"]),
            rows=rows,
            cells=cells,
            fit=(
                Fraction(fit["a"]),
                Fraction(fit["b"]),
                Fraction(fit["c"]),
            ),
        )


def _affine_fit(rows: dict) -> tuple[Fraction, Fraction, Fraction]:
    """Small dominating affine bound: slopes from the grid, then the offset."""
    zero = Fraction(0)
    a = zero
    b = zero
    eps_values = sorted({eps for eps, _ in rows})
    m_values = sorted({m for _, m in rows})
    for m in m_values:
        col = [(eps, rows[(eps, m)]) for eps in eps_values if (eps, m) in rows]
        for (e1, mu1), (e2, mu2) in zip(col, col[1:]):
            a = max(a, Fraction(mu2 - mu1, e2 - e1))
    for eps in eps_values:
        row = [(m, rows[(eps, m)]) for m in m_values if (eps, m) in rows]
        for (m1, mu1), (m2, mu2) in zip(row, row[1:]):
            b = max(b, Fraction(mu2 - mu1, m2 - m1))
    c = max(Fraction(mu) - a * eps - b * m for (eps, m), mu in rows.items())
    return a, b, max(c, zero)


def level_measure(
    problem: FiberProblem,
    phi: SchwartzBruhat,
    eps_values,
    m_values=(0,),
    x0=None,
    resolution: int | None = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> LevelReport:
    """Measure local-constancy levels of the pushforward on shrinking regions.

    For each eps, the scanned region consists of the base points y with
    ord(y) at least the image window bound of phi and valuative proximity
    to every critical value at most eps; for each m, phi is restricted to
    the level-m ball at ``x0`` (the unit point by default; an int is read
    as ``field.from_int(x0)``, as ``fiber_integrate`` reads y).  The measured
    mu is the minimal level at which the pushforward is constant per cell
    across the region, checked exhaustively at the working resolution.
    ``cell_budget`` (default the shared ``DEFAULT_CELL_BUDGET``) bounds the
    number of cells of the scanned window at that resolution.

    Every scanned centre is a regular value, so the scan calls the value
    kernel with no critical-value test.  Per restriction of phi it builds
    one root search over all scanned centres (``_Search``), which holds the
    codes format of every centre, the folds of f_K' and of the y-free part
    of f_K - y and the ords of the coefficients of degree >= 1; per centre
    the search adds only the term -y, reads the ord of the constant
    coefficient and walks, and ord disc_K(y) is read at most once, only if
    a search needs it.

    A centre is a canonical truncation at the resolution R, with no digit
    at R or beyond.  The root search finds every critical value of
    valuation at least min(window, 0, least eps + 1), cut at R, and a
    centre y is scanned only if ord(y - z) <= eps < R for each such cut z,
    so y differs from each of those critical values in a digit below R.
    Any other critical value has valuation at most the least eps, so
    ord(y - z) = ord z <= eps from every centre.

    The scan runs on integer codes (see the module docstring).  With
    lo = min(window, 0), every centre c and every critical value z of
    ord >= lo has the code ``residue_code(., lo)``, its base-q digit string
    from lo.  c is scanned at eps exactly when its code mod q^(eps + 1 - lo)
    is none of the critical codes mod the same power, the exponent clamped
    at 0, so that for eps < lo no centre is scanned if there is a critical
    value of ord >= lo; a critical value of ord < lo excludes every centre
    at each eps below its ord.  The level-L truncation of c has the code
    code_c mod q^(L - lo), so the search for mu groups the centres by that
    residue, with no field element truncated.  ord disc_K(y) is read on the
    codes that the first root search holds for y.

    Raises FieldError when disc_K vanishes identically (f_K' = 0, as for
    x^p over F_p((t))): every value is then critical, and
    ``fiber_integrate`` raises OnDiscriminant at every y.
    """
    if phi.n != 1:
        raise FieldError("level measurement works along one-variable charts")
    field = phi.field
    eps_values = tuple(sorted(set(int(e) for e in eps_values)))
    m_values = tuple(sorted(set(int(m) for m in m_values)))
    if not eps_values or not m_values:
        raise FieldError("need at least one eps and one m value")
    if x0 is None:
        x0 = field.one()
    elif isinstance(x0, int):
        x0 = field.from_int(x0)

    support, _ = phi.alpha_bounds()
    # ord f(x) >= window on the support of phi, so the pushforward
    # vanishes at any y below this valuation window
    f, _, forms = problem.reduced(field)
    if not forms[2][0]:
        # f_K' = 0, as for x^p over F_p((t)): every fiber is inseparable
        raise FieldError(
            f"the discriminant of {poly_to_string(f)} vanishes identically "
            f"over {field!r}: every value is critical"
        )
    window = min(
        field_int_ord(field, coef) + exps[0] * support
        for exps, coef in f.coeffs.items()
    )
    if resolution is None:
        resolution = max(
            3, eps_values[-1] + max(m_values[-1], 0) + 2, window + 1
        )
    if resolution <= max(eps_values[-1], window):
        raise FieldError(
            "resolution must exceed the largest eps and the image window"
        )
    check_budget("level scan", field.q ** (resolution - window), cell_budget)

    # the digit codes at the origin lo of every centre and of the critical
    # values of ord >= lo, cut at R; one of lower ord is at proximity its
    # ord from every centre, so only the largest such ord counts, and only
    # if it exceeds the least eps (see the docstring)
    lo = min(window, 0)
    q = field.q
    cut = _critical_values(problem, field, min(lo, eps_values[0] + 1), resolution)
    coded = [(z, field.residue_code(z, lo)) for z in cut]
    critical = [n for _, n in coded if n is not None]
    below = max((field.ord(z) for z, n in coded if n is None), default=-INF)
    region = Polyball.ball(field, (field.zero(),), window)
    centers = [c for (c,) in region.cells_at_level(resolution)]
    codes = [field.residue_code(c, lo) for c in centers]
    included = {}
    for eps in eps_values:
        mod = q ** max(eps + 1 - lo, 0)
        near = {z % mod for z in critical}
        included[eps] = [
            i for i, n in enumerate(codes) if below <= eps and n % mod not in near
        ]

    # the regions grow with eps, so the last one holds every scanned centre;
    # one root search per restriction serves them all, and the first one
    # reads ord disc_K(y) on its codes
    scanned = [centers[i] for i in included[eps_values[-1]]]
    zero = CycloScalar.zero(field.p)
    restricted = []  # (search, phi cells) per restriction, None for a zero one
    for m in m_values:
        local = phi.restrict(Polyball.ball(field, (x0,), m))
        kernel = None
        if not local.is_zero():
            kernel = _value_search(forms, local, scanned), _phi_cells(local)
        restricted.append(kernel)
    reader = next((kernel[0] for kernel in restricted if kernel is not None), None)
    # per restriction, the value at each scanned centre, by index into
    # ``centers``
    values = [[None] * len(centers) for _ in m_values]
    for i in included[eps_values[-1]]:
        c = centers[i]
        disc_ord = reader and _once(partial(reader.ord_at, forms[2], (c,)))
        for table, kernel in zip(values, restricted):
            table[i] = zero if kernel is None else _pushforward_value(*kernel, c, disc_ord)

    rows = {}
    cells = {}
    for eps in eps_values:
        for m, table in zip(m_values, values):
            pairs = [(codes[i], table[i]) for i in included[eps]]
            mu = resolution
            for cand in range(lo, resolution + 1):
                mod = q ** (cand - lo)
                groups: dict = {}
                if all(groups.setdefault(n % mod, v) == v for n, v in pairs):
                    mu = cand
                    break
            rows[(eps, m)] = mu
            cells[(eps, m)] = len(pairs)

    return LevelReport(
        f_text=poly_to_string(problem.f),
        field=field,
        x0_json=field.element_to_json(x0),
        resolution=resolution,
        window=window,
        eps_values=eps_values,
        m_values=m_values,
        rows=rows,
        cells=cells,
        fit=_affine_fit(rows),
    )


def _reduce(field: LocalField, f: MultiPoly) -> MultiPoly:
    """f with its coefficients reduced into ``field``: f itself over Q_p,
    mod p over F_p((t)), where the zero ones drop out."""
    if field.kind == "p-adic":
        return f
    return MultiPoly(f.n, {e: c % field.p for e, c in f.coeffs.items()})


def _critical_values(problem: FiberProblem, field: LocalField, window: int, k: int):
    """The critical values of valuation >= window, cut at level k: the roots
    of the integer polynomial ``critical_locus``, whose discriminant
    ``padic_roots`` reads."""
    return padic_roots(problem.critical_locus(field), field, k, window)


def _search_forms(field: LocalField, h: MultiPoly) -> tuple:
    """The ``int_form`` of h and of dh/dx, x its first variable: what the
    root search evaluates."""
    return int_form(field, h.coeffs), int_form(field, h.derivative(0).coeffs)


def _once(read):
    """A function returning read(), which it calls at most once."""
    got = []

    def value():
        if not got:
            got.append(read())
        return got[0]

    return value
