"""Exponent calculus for K_{s,t}-free incidence bounds.

Bounds on incidences between points and k-dimensional flats in R^d are
governed by the dimension ratio k/d.  This module enumerates, exactly over
the rationals:

* the *problematic pairs* (k', d'): higher-ratio subproblems that force a
  cap parameter q_{k',d'} on shared intersections,
* *dimension chains*: sequences of pairs with non-increasing k, strictly
  decreasing d, and strictly increasing ratio, which index the terms of the
  general upper bound,
* the exact exponents of each bound term, both from the closed form and by
  solving the defining linear system, and
* the dominance order between leading terms of different ratios.

Every exponent is carried as a ``Fraction`` end to end; evaluation to a
real number happens only at the reporting edge, at a declared precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random
from typing import Iterable

from . import linalg
from .errors import DegenerateSystem, InvalidInput, InvariantViolation

DEFAULT_DIGITS = 30


@dataclass(frozen=True, order=True)
class DimPair:
    """Object dimension k inside ambient dimension d, with 1 <= k < d."""

    k: int
    d: int

    def __post_init__(self):
        if not (1 <= self.k < self.d):
            raise InvalidInput(f"need 1 <= k < d, got (k, d) = ({self.k}, {self.d})")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.k, self.d)


@dataclass(frozen=True)
class DimensionChain:
    """A chain ((k_0,d_0), ..., (k_u,d_u)) indexing one bound term.

    Validity: k_j < d_j throughout, k non-increasing, d strictly
    decreasing, dimension ratio strictly increasing and below 1.
    """

    pairs: tuple[DimPair, ...]

    def __init__(self, pairs: Iterable[DimPair]):
        ps = tuple(
            p if isinstance(p, DimPair) else DimPair(*p) for p in pairs
        )
        if not ps:
            raise InvalidInput("a chain needs at least one pair")
        for a, b in zip(ps, ps[1:]):
            if not (a.k >= b.k and a.d > b.d and a.ratio < b.ratio):
                raise InvalidInput(f"invalid chain step {a} -> {b}")
        if ps[-1].d < 2:
            raise InvalidInput("final ambient dimension must be at least 2")
        object.__setattr__(self, "pairs", ps)

    @property
    def head(self) -> DimPair:
        return self.pairs[0]

    @property
    def last(self) -> DimPair:
        return self.pairs[-1]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class BoundTerm:
    """Exact exponents of one term m^(alpha+eps) n^beta prod q^beta_j.

    ``epsilon_on_m`` records that the m-exponent carries an arbitrarily
    small +eps in the bound statement; the eps itself is never folded into
    ``alpha``.
    """

    alpha: Fraction
    beta: Fraction
    q_exponents: tuple[tuple[DimPair, Fraction], ...]
    s: int
    epsilon_on_m: bool = True

    def __post_init__(self):
        total = self.beta + sum(e for _, e in self.q_exponents)
        if self.alpha + self.s * total != self.s:
            raise InvariantViolation(
                f"exponent balance failed: alpha + s*(beta + sum beta_j) = "
                f"{self.alpha + self.s * total} != {self.s}"
            )
        for name, value in [("alpha", self.alpha), ("beta", self.beta)] + [
            (f"q{p.k},{p.d}", e) for p, e in self.q_exponents
        ]:
            if not (0 <= value <= self.s):
                raise InvariantViolation(
                    f"exponent {name} = {value} is outside [0, {self.s}]"
                )

    @property
    def n_exponent_total(self) -> Fraction:
        """beta plus all q-exponents: the n-exponent after setting q = n."""
        return self.beta + sum(e for _, e in self.q_exponents)


# ---------------------------------------------------------------------------
# pair sets and chain enumeration
# ---------------------------------------------------------------------------


def problematic_pairs(k: int, d: int) -> list[DimPair]:
    """All (k', d') with 1 <= k' <= k, 2 <= d' <= d and k/d < k'/d' < 1.

    These are the subproblem shapes whose leading term is *not* dominated
    by the (k, d) leading term, sorted by (d desc, k desc).
    """
    _check_pair(k, d)
    base = Fraction(k, d)
    out = [
        DimPair(kk, dd)
        for kk in range(1, k + 1)
        for dd in range(2, d + 1)
        if base < Fraction(kk, dd) < 1
    ]
    out.sort(key=lambda p: (-p.d, -p.k))
    return out


def low_ratio_pairs(k: int, d: int) -> list[DimPair]:
    """The problematic pairs whose own ratio is at most 1/2.

    Only these pairs matter for transversely intersecting families; the
    precondition k <= d/2 mirrors that setting.
    """
    _check_pair(k, d)
    if 2 * k > d:
        raise InvalidInput(f"need k <= d/2, got (k, d) = ({k}, {d})")
    return [p for p in problematic_pairs(k, d) if p.ratio <= Fraction(1, 2)]


def enumerate_chains(k: int, d: int, restricted: bool = False) -> list[DimensionChain]:
    """All valid chains starting at (k, d).

    Pairs after the head are drawn from :func:`problematic_pairs` (or
    :func:`low_ratio_pairs` when ``restricted``).  The singleton chain
    ((k, d)) is always included.  Depth-first over the pool ordered by
    (d desc, k desc), pruning on the strict ratio increase; output is
    sorted deterministically.
    """
    pool = low_ratio_pairs(k, d) if restricted else problematic_pairs(k, d)
    head = DimPair(k, d)
    chains: list[tuple[DimPair, ...]] = []

    def extend(chain: list[DimPair], start: int) -> None:
        chains.append(tuple(chain))
        last = chain[-1]
        for i in range(start, len(pool)):
            cand = pool[i]
            if cand.k <= last.k and cand.d < last.d and cand.ratio > last.ratio:
                chain.append(cand)
                extend(chain, i + 1)
                chain.pop()

    extend([head], 0)
    chains.sort(key=lambda c: (len(c), [(p.k, p.d) for p in c]))
    return [DimensionChain(c) for c in chains]


def _check_pair(k: int, d: int) -> None:
    if not (1 <= k < d):
        raise InvalidInput(f"need 1 <= k < d, got (k, d) = ({k}, {d})")


# ---------------------------------------------------------------------------
# leading term
# ---------------------------------------------------------------------------


def leading_exponents(k: int, d: int, s: int) -> tuple[Fraction, Fraction]:
    """Exact (m-exponent, n-exponent) of the conjectured leading term:
    ( sk/(ds-d+k), (ds-d)/(ds-d+k) )."""
    _check_pair(k, d)
    if s < 2:
        raise InvalidInput("s must be at least 2")
    denom = d * s - d + k
    return Fraction(s * k, denom), Fraction(d * s - d, denom)


@dataclass(frozen=True)
class LeadingTerm:
    m_exponent: Fraction
    n_exponent: Fraction
    value: Decimal
    digits: int


def leading_term(
    k: int, d: int, s: int, m: int, n: int, digits: int = DEFAULT_DIGITS
) -> LeadingTerm:
    """Exact exponents of the leading term plus its value at (m, n),
    evaluated at ``digits`` significant digits."""
    if m < 1 or n < 1:
        raise InvalidInput("m and n must be at least 1")
    alpha, beta = leading_exponents(k, d, s)
    with localcontext() as ctx:
        ctx.prec = digits + 15
        log_value = (
            Decimal(m).ln() * Decimal(alpha.numerator) / Decimal(alpha.denominator)
            + Decimal(n).ln() * Decimal(beta.numerator) / Decimal(beta.denominator)
        )
        value = log_value.exp()
    return LeadingTerm(alpha, beta, value, digits)


# ---------------------------------------------------------------------------
# bound terms: closed form and linear system
# ---------------------------------------------------------------------------


def term_from_chain(chain: DimensionChain, s: int) -> BoundTerm:
    """Closed-form exponents of the bound term indexed by ``chain``.

    With (k_u, d_u) the last pair and E = (d_u-k_u)(s-1)/(s d_u - d_u + k_u):
    alpha = s k_u / (s d_u - d_u + k_u), beta = d/(d-k) * E, and the j-th
    q-exponent is the telescoping difference (d_j/(d_j-k_j) -
    d_{j-1}/(d_{j-1}-k_{j-1})) * E.
    """
    if s < 2:
        raise InvalidInput("s must be at least 2")
    last = chain.last
    denom = s * last.d - last.d + last.k
    outer = Fraction((last.d - last.k) * (s - 1), denom)
    alpha = Fraction(s * last.k, denom)
    ratios = [Fraction(p.d, p.d - p.k) for p in chain]
    beta = ratios[0] * outer
    q_exponents = tuple(
        (pair, (ratios[j] - ratios[j - 1]) * outer)
        for j, pair in enumerate(chain.pairs)
        if j >= 1
    )
    return BoundTerm(alpha=alpha, beta=beta, q_exponents=q_exponents, s=s)


def term_from_system(chain: DimensionChain, s: int) -> BoundTerm:
    """The same exponents, obtained by exact elimination on the defining
    linear system in (alpha, beta, beta_1, ..., beta_u):

        alpha + s (beta + beta_1 + ... + beta_u) = s
        d_j alpha + (d_j - k_j)(beta + beta_1 + ... + beta_j) = d_j
                                                  for j = 0, ..., u.

    A singular system would be a hard bug, not a data condition.
    """
    if s < 2:
        raise InvalidInput("s must be at least 2")
    pairs = chain.pairs
    u = len(pairs) - 1
    augmented = [[1] + [s] * (u + 1) + [s]]
    for j, pair in enumerate(pairs):
        augmented.append([pair.d] + [pair.d - pair.k] * (j + 1) + [0] * (u - j) + [pair.d])
    solved = linalg.solve_rref(*linalg.integer_rref(augmented), u + 2)
    if solved is None or solved[2]:  # no solution, or not a unique one
        raise DegenerateSystem(
            f"singular exponent system for chain {[(p.k, p.d) for p in pairs]}"
        )
    point, den, _ = solved
    solution = [Fraction(x, den) for x in point]
    alpha, beta = solution[0], solution[1]
    q_exponents = tuple((pairs[j], solution[j + 1]) for j in range(1, u + 1))
    return BoundTerm(alpha=alpha, beta=beta, q_exponents=q_exponents, s=s)


# ---------------------------------------------------------------------------
# dominance of leading terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the exact comparison of two leading terms under the
    constraint log n <= s log m.

    ``certified`` is the symbolic verdict over the whole constraint cone;
    sampled spot checks are supplementary and listed only when they
    disagree (they never should).
    """

    dominant: DimPair
    dominated: DimPair
    s: int
    certified: bool
    interior_strict: bool
    boundary_equal: bool
    samples_checked: int
    equality_samples: int
    violations: tuple[tuple[Fraction, Fraction], ...] = field(default_factory=tuple)


def ratio_dominates(
    k: int,
    d: int,
    k2: int,
    d2: int,
    s: int,
    samples: int = 64,
    seed: int = 0,
) -> DominanceReport:
    """Certify that the (k2, d2) leading term is at most the (k, d) one
    whenever n <= m^s, assuming k2/d2 <= k/d < 1.

    The comparison is done symbolically on the exponent linear forms over
    (log m, log n): on the cone {log m >= 0, 0 <= log n <= s log m} a
    linear form is maximized on the extreme rays, so dominance reduces to
    the two ray checks.  Random rational sample points spot-check the same
    inequality exactly.
    """
    _check_pair(k, d)
    _check_pair(k2, d2)
    if s < 2:
        raise InvalidInput("s must be at least 2 (the comparison needs s > 1)")
    if Fraction(k2, d2) > Fraction(k, d):
        raise InvalidInput(
            f"precondition k2/d2 <= k/d violated: {k2}/{d2} > {k}/{d}"
        )
    mu, nu = leading_exponents(k, d, s)
    mu2, nu2 = leading_exponents(k2, d2, s)
    # ray (log m, log n) = (1, 0): interior direction
    interior_ok = mu2 <= mu
    interior_strict = mu2 < mu
    # ray (1, s): the boundary n = m^s, where both forms evaluate to s
    boundary_equal = (mu2 + s * nu2) == (mu + s * nu)
    certified = interior_ok and (mu2 + s * nu2) <= (mu + s * nu)

    rng = Random(seed)
    violations: list[tuple[Fraction, Fraction]] = []
    equality_samples = 0
    for _ in range(samples):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 1000))
        y = x * s * Fraction(rng.randint(0, 1000), 1000)
        lhs = mu2 * x + nu2 * y
        rhs = mu * x + nu * y
        if lhs > rhs:
            violations.append((x, y))
        elif lhs == rhs:
            equality_samples += 1
    return DominanceReport(
        dominant=DimPair(k, d),
        dominated=DimPair(k2, d2),
        s=s,
        certified=certified and not violations,
        interior_strict=interior_strict,
        boundary_equal=boundary_equal,
        samples_checked=samples,
        equality_samples=equality_samples,
        violations=tuple(violations),
    )
