"""Lower-bound point/hyperplane constructions with verified parameters.

Two generators are provided, both entries into one construction body
that takes the few values setting them apart from ``_VARIANTS``:

* :func:`build_grid_construction` -- an integer grid of points plus, for a
  set of admissible primitive normal directions, every hyperplane with that
  normal through a grid point.  Every point meets exactly one hyperplane
  per normal, so the incidence count on the non-padding hyperplanes is
  exactly ``m * |V|``.
* :func:`build_sphere_construction` -- integer grid points bucketed by
  exact squared distance to the origin; the fullest sphere is kept, so no
  line carries three points (a line meets a sphere in at most two points).
  Hyperplanes are built the same way, with normals admissible for
  (d-2)-dimensional subspaces.

Admissibility is *verified*, not assumed: the selection procedure is a
seeded greedy filter, and the exact maximum number of chosen directions
inside any linear subspace of the guarded dimension is measured by
exhaustive search (with a work-budget guard).  All downstream freeness
claims use the measured value, never an asymptotic promise.

Constructions are deterministic: identical configuration plus seed gives a
bit-identical output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InvalidInput, InvariantViolation, ResourceLimit, SizeShortfall
from .exponents import DimensionChain, DimPair, term_from_chain
from .geometry import (
    Flat,
    IntVector,
    RatPoint,
    find_collinear_triple,
    generic_extension,
    is_primitive,
    make_hyperplane,
)
from .incidence import (
    DEFAULT_COMPARISON_LIMIT,
    IncidenceInstance,
    KstWitness,
    _PointSplit,
    _exact_dots,
    _int_point_matrix,
    _int_root_floor,
    _normal_dots,
    count_incidences,
    find_kst,
)

DEFAULT_EPSILON_PRIME = 0.1
_GRID_LIMIT = 10**7
_PAD_NORMAL_BOX = 3
_SPHERE_PAD_BOX = 40
# variant -> (codimension of the guarded subspaces, drop e, slope a, regime):
# the regime is m <= n^p with p = d - e, which is also the exponent sizing
# the point grid, and a enters the normal-box formula of _box_side
_VARIANTS = {"a": (1, 0, 2, "n^d"), "b": (2, 2, 3, "n^(d-2)")}


@dataclass(frozen=True)
class ConstructionConfig:
    """Parameters for the generators.

    ``box_side`` overrides the auto-derived normal-box side.  ``t_cap`` is
    the admissibility cap enforced during normal selection; when ``None``
    it defaults to one more than the guarded subspace dimension, the
    smallest value that general position allows.
    """

    d: int
    m: int
    n: int
    s: int = 2
    t_cap: int | None = None
    box_side: int | None = None
    seed: int = 0
    pad: bool = True
    epsilon_prime: float = DEFAULT_EPSILON_PRIME

    def __post_init__(self):
        if self.d < 2:
            raise InvalidInput("ambient dimension must be at least 2")
        if self.m < 1 or self.n < 1:
            raise InvalidInput("m and n must be positive")
        if self.box_side is not None and self.box_side < 1:
            raise InvalidInput(f"box side must be at least 1, got {self.box_side}")


@dataclass(frozen=True)
class NormalSelection:
    vectors: tuple[IntVector, ...]
    t_measured: int
    verified: bool
    requested: int


@dataclass(frozen=True)
class ConstructionOutput:
    """A generated configuration plus its verified bookkeeping.

    ``flats[:padding_start]`` are the construction hyperplanes; the rest
    are padding, each verified to contain no point.  For sphere instances
    ``points[core_point_count:]`` are padded sphere points, each verified
    to lie on no hyperplane.
    """

    variant: str
    ambient_dim: int
    points: tuple[RatPoint, ...]
    flats: tuple[Flat, ...]
    normals_used: tuple[IntVector, ...]
    t_measured: int
    t_verified: bool
    predicted_incidences: int
    padding_start: int
    core_point_count: int
    seed: int
    inner_ambient_dim: int | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# primitives: grids and primitive vectors
# ---------------------------------------------------------------------------


def lattice_points(d: int, m: int) -> list[RatPoint]:
    """The first ``m`` points, in lexicographic order, of the integer grid
    ``{0, ..., g-1}^d`` with the smallest side ``g`` satisfying g^d >= m."""
    if m < 1:
        raise InvalidInput("m must be positive")
    if d < 1:
        raise InvalidInput("d must be positive")
    side = _int_root_floor(m - 1, d) + 1
    if side**d > _GRID_LIMIT:
        raise InvalidInput(f"grid of side {side} in R^{d} is beyond desk scale")
    out: list[RatPoint] = []
    for coords in product(range(side), repeat=d):
        if len(out) == m:
            break
        out.append(RatPoint(coords))
    return out


def primitive_vectors(box_side: int, d: int) -> list[IntVector]:
    """All primitive vectors in the centered box of side ``box_side``,
    deduplicated up to sign (lexicographically positive representative),
    in lexicographic order.

    The box holds the integer points with every coordinate in
    ``[-floor(box_side/2), floor(box_side/2)]``.
    """
    if box_side < 1:
        raise InvalidInput("box side must be positive")
    if d < 1:
        raise InvalidInput("d must be positive")
    half = box_side // 2
    if (2 * half + 1) ** d > _GRID_LIMIT:
        raise InvalidInput("normal box is beyond desk scale")
    out: list[IntVector] = []
    for coords in product(range(-half, half + 1), repeat=d):
        vec = IntVector(coords)
        if vec.is_zero():
            continue
        first_nonzero = next(c for c in coords if c != 0)
        if first_nonzero < 0:
            continue  # keep one representative of {v, -v}
        if vec.content() == 1:
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# admissible normal selection
# ---------------------------------------------------------------------------


def _span_equations(vectors: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Primitive integer equations of the linear span of ``vectors``."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    if not rows:
        rows = [[Fraction(0)] * dim]
    basis = linalg.nullspace(rows)
    return [linalg.integer_row_and_offset(row, 0)[0] for row in basis]


def _count_on_subspace(
    equations: Sequence[tuple[int, ...]],
    matrix: np.ndarray,
    max_abs: int,
) -> int:
    """How many rows of ``matrix`` satisfy every homogeneous equation."""
    mask = np.ones(matrix.shape[0], dtype=bool)
    for eq in equations:
        mask &= _exact_dots(matrix, max_abs, eq) == 0
    return int(mask.sum())


def select_admissible_normals(
    candidates: Sequence[IntVector],
    flat_dim: int,
    t_max: int,
    target_size: int,
    seed: int,
    limit: int = DEFAULT_COMPARISON_LIMIT,
) -> NormalSelection:
    """Greedy selection of normals so that no linear subspace of dimension
    ``flat_dim`` contains more than ``t_max`` of them.

    Candidates are visited in seeded random order and accepted when the
    cap provably survives.  The returned ``t_measured`` is the exact
    maximum subspace coverage of the final set, found by exhaustive search
    over spanning subsets; if that search would exceed ``limit`` work, the
    selection is returned with ``verified=False`` and the trivial bound.
    """
    if not candidates:
        return NormalSelection((), 0, True, target_size)
    d = candidates[0].dim
    if flat_dim not in (d - 1, d - 2) or flat_dim < 1:
        raise InvalidInput(
            f"guarded dimension must be d-1 or d-2 (got {flat_dim} in R^{d})"
        )
    for v in candidates:
        if v.dim != d:
            raise InvalidInput("candidates have mixed dimensions")
        if not is_primitive(v):
            raise InvalidInput(f"candidate {v.coords} is not primitive")
    if t_max < flat_dim:
        raise InvalidInput(
            f"t_max={t_max} below {flat_dim} is unsatisfiable in general position"
        )
    order = sorted(candidates, key=lambda v: v.coords)
    Random(seed).shuffle(order)

    selected: list[IntVector] = []
    sel_matrix = np.zeros((0, d), dtype=np.int64)
    max_abs = 0
    subset_size = flat_dim - 1
    for cand in order:
        if len(selected) >= target_size:
            break
        if len(selected) + 1 <= t_max:
            accept = True
        else:
            accept = True
            pool = range(len(selected))
            for idx_subset in combinations(pool, min(subset_size, len(selected))):
                span = [cand.coords] + [selected[i].coords for i in idx_subset]
                eqs = _span_equations(span, d)
                count = _count_on_subspace(eqs, sel_matrix, max_abs) + 1
                if count > t_max:
                    accept = False
                    break
        if accept:
            selected.append(cand)
            sel_matrix = np.array([v.coords for v in selected], dtype=np.int64)
            max_abs = max(max_abs, max(abs(c) for c in cand.coords))
    selected.sort(key=lambda v: v.coords)
    t_measured, verified = measure_max_coverage(selected, flat_dim, limit)
    return NormalSelection(tuple(selected), t_measured, verified, target_size)


def measure_max_coverage(
    vectors: Sequence[IntVector], flat_dim: int, limit: int = DEFAULT_COMPARISON_LIMIT
) -> tuple[int, bool]:
    """Exact maximum number of ``vectors`` inside any linear subspace of
    dimension ``flat_dim``, by exhaustive search over spanning subsets."""
    n = len(vectors)
    if n == 0:
        return 0, True
    d = vectors[0].dim
    if n <= flat_dim:
        return n, True
    estimate = comb(n, flat_dim) * (n * d + d**3)
    if estimate > limit:
        return n, False  # trivial bound; marked unverified above the size cap
    matrix = np.array([v.coords for v in vectors], dtype=np.int64)
    max_abs = int(np.abs(matrix).max())
    best = 0
    for subset in combinations(range(n), flat_dim):
        eqs = _span_equations([vectors[i].coords for i in subset], d)
        best = max(best, _count_on_subspace(eqs, matrix, max_abs))
    return best, True


# ---------------------------------------------------------------------------
# construction (both variants)
# ---------------------------------------------------------------------------


def _box_side(d: int, m: int, n: int, eps: float, slope: int, power: int) -> float:
    """The normal-box side n^((d-1)/D) / m^((d-1)/(power D)), where
    D = slope d - 1 - (d-1) eps."""
    denom = slope * d - 1 - (d - 1) * eps
    return n ** ((d - 1) / denom) / m ** ((d - 1) / (power * denom))


def _achieved_offsets(
    v: IntVector, points: Sequence[RatPoint], split: _PointSplit
) -> set:
    """Exact set of dot products <v, p> over all points; ``split`` is
    ``_int_point_matrix(points)``."""
    dots, leftover_dots = _normal_dots(v.coords, points, split)
    return set(np.unique(dots).tolist()) | set(leftover_dots)


def _core_hyperplanes(
    points: Sequence[RatPoint], normals: Sequence[IntVector], split: _PointSplit
) -> tuple[list[Flat], dict[IntVector, set]]:
    """One hyperplane per normal and achieved offset, and the offset sets."""
    achieved = {v: _achieved_offsets(v, points, split) for v in normals}
    flats = [make_hyperplane(v, c) for v in normals for c in sorted(achieved[v])]
    return flats, achieved


def _pad_hyperplanes(
    points: Sequence[RatPoint],
    split: _PointSplit,
    count: int,
    d: int,
    rng: Random,
    achieved: dict[IntVector, set],
) -> list[Flat]:
    """``count`` hyperplanes, each verified to contain no point.

    A normal's full offset set over the points is computed once; an offset
    outside it proves the hyperplane is point-free.
    """
    if count <= 0:
        return []
    pool = primitive_vectors(2 * _PAD_NORMAL_BOX, d)
    rng.shuffle(pool)
    pads: list[Flat] = []
    used: set[tuple[tuple[int, ...], Fraction]] = set()
    ranges: dict[IntVector, tuple[int, int]] = {}
    attempts = 0
    while len(pads) < count:
        attempts += 1
        if attempts > 64 * count + 1024:
            raise SizeShortfall(
                f"could not place {count} point-free hyperplanes", achieved=len(pads)
            )
        v = pool[(len(pads) + attempts) % len(pool)]
        if v not in achieved:
            achieved[v] = _achieved_offsets(v, points, split)
        if v not in ranges:
            ints = [int(x) for x in achieved[v] if Fraction(x).denominator == 1]
            ranges[v] = (min(ints, default=0), max(ints, default=0))
        low, high = ranges[v]
        offset = Fraction(rng.randint(low - count - 8, high + count + 8))
        if offset in achieved[v] or (v.coords, offset) in used:
            continue
        used.add((v.coords, offset))
        pads.append(make_hyperplane(v, offset))
    return pads


def build_grid_construction(cfg: ConstructionConfig) -> ConstructionOutput:
    """Grid points, admissible normals, one hyperplane per achieved offset.

    Every point is incident to exactly one hyperplane for each chosen
    normal, so the non-padding incidence count is exactly ``m * |V|``.
    Padding hyperplanes (when ``cfg.pad`` and the core family is short of
    ``n``) are each verified to add zero incidences.
    """
    return _build_construction(cfg, "a")


def build_sphere_construction(cfg: ConstructionConfig) -> ConstructionOutput:
    """Integer sphere points plus hyperplanes with (d-2)-admissible normals.

    No three points are collinear (a line meets a sphere at most twice),
    and no linear (d-2)-subspace holds more than the measured number of
    normals, which together bound the common hyperplanes of any point
    triple.  Points padded to reach ``m`` stay on the same sphere and are
    verified to meet no hyperplane, so the exact incidence count is
    ``core_point_count * |V|``.
    """
    if cfg.d < 4:
        raise InvalidInput("the sphere construction needs d >= 4")
    return _build_construction(cfg, "b")


def _build_construction(cfg: ConstructionConfig, variant: str) -> ConstructionOutput:
    """The body of both generators; ``variant`` is "a" (grid) or "b" (sphere)."""
    codim, drop, slope, regime = _VARIANTS[variant]
    d, m, n = cfg.d, cfg.m, cfg.n
    power = d - drop
    notes: list[str] = []
    if m > n**power:
        msg = f"regime warning: m={m} exceeds {regime}={n**power}"
        warnings.warn(msg)
        notes.append(msg)
    if cfg.box_side is not None:
        box_real = float(cfg.box_side)
        notes.append(f"normal box side override: {cfg.box_side}")
    else:
        box_real = _box_side(d, m, n, cfg.epsilon_prime, slope, power)
        if box_real < 1:
            raise InvalidInput(
                f"normal box side {box_real:.4g} < 1: m is too large relative to"
                f" {regime}; decrease m or increase n"
            )
    box = max(1, round(box_real))
    target = max(1, round(box_real ** (codim * d / (d - 1) - cfg.epsilon_prime)))
    if variant == "b":
        core_points, delta_sq, side = _sphere_grid_bucket(d, m)
        notes.append(
            f"sizing grid side {side} (exponent 1/(d-2) reading; the alternative"
            f" family-size reading with exponent 1/d is recorded here, not used);"
            f" squared radius {delta_sq}, bucket kept {len(core_points)}"
        )
    else:
        core_points = lattice_points(d, m)
    rng = Random(cfg.seed)
    candidates = primitive_vectors(box, d)
    flat_dim = d - codim
    t_cap = cfg.t_cap if cfg.t_cap is not None else flat_dim + 1
    selection = select_admissible_normals(
        candidates, flat_dim, t_cap, target, seed=rng.randrange(2**32)
    )
    if len(selection.vectors) < target:
        notes.append(
            f"normal shortfall: wanted {target}, selected {len(selection.vectors)}"
            f" from {len(candidates)} candidates"
        )
    split = _int_point_matrix(core_points)
    core, achieved = _core_hyperplanes(core_points, selection.vectors, split)
    notes.append(
        f"box side {box} (formula value {box_real:.4f}), |V|={len(selection.vectors)},"
        f" core hyperplanes {len(core)}"
    )
    points = list(core_points)
    if variant == "b" and len(points) < m:
        if delta_sq == 0:
            raise SizeShortfall(
                "cannot pad a zero-radius sphere", achieved=len(points)
            )
        pads = _sphere_pad_points(
            points[0], delta_sq, m - len(points), {p.coords for p in points},
            selection.vectors, achieved, rng,
        )
        notes.append(f"padded {len(pads)} rational sphere points to reach m={m}")
        points.extend(pads)
        # padding hyperplanes below must also avoid the padded points, so
        # the point split and the cached offset sets have to cover them
        split = _int_point_matrix(points)
        achieved = {v: _achieved_offsets(v, points, split) for v in achieved}
    flats = list(core)
    if cfg.pad and len(flats) < n:
        flats.extend(_pad_hyperplanes(points, split, n - len(flats), d, rng, achieved))
    elif len(flats) > n:
        notes.append(f"core family already exceeds n: {len(flats)} > {n}; kept all")
    return ConstructionOutput(
        variant=variant,
        ambient_dim=d,
        points=tuple(points),
        flats=tuple(flats),
        normals_used=selection.vectors,
        t_measured=selection.t_measured,
        t_verified=selection.verified,
        predicted_incidences=len(core_points) * len(selection.vectors),
        padding_start=len(core),
        core_point_count=len(core_points),
        seed=cfg.seed,
        notes=tuple(notes),
    )


def _sphere_grid_bucket(d: int, m: int) -> tuple[list[RatPoint], int, int]:
    """Points of the densest origin-centered sphere in the sizing grid.

    The grid has side ceil(m^(1/(d-2))) in R^d, so the pigeonhole over the
    O(m^(2/(d-2))) possible squared distances leaves a bucket of size
    Omega(m).  Ties pick the smallest squared radius; the bucket is
    truncated lexicographically to at most m points.
    """
    side = _int_root_floor(m - 1, d - 2) + 1
    if side**d > _GRID_LIMIT:
        raise InvalidInput(
            f"sphere grid of side {side} in R^{d} is beyond desk scale"
        )
    axes = [np.arange(side, dtype=np.int64)] * d
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    squares = (coords * coords).sum(axis=1)
    values, counts = np.unique(squares, return_counts=True)
    delta_sq = int(values[int(np.argmax(counts))])
    bucket = coords[squares == delta_sq]
    order = np.lexsort(tuple(bucket[:, j] for j in range(d - 1, -1, -1)))
    bucket = bucket[order]
    points = [RatPoint(tuple(int(x) for x in row)) for row in bucket[:m]]
    return points, delta_sq, side


def _sphere_pad_points(
    base: RatPoint,
    delta_sq: int,
    needed: int,
    existing: set[tuple[Fraction, ...]],
    normals: Sequence[IntVector],
    achieved: dict[IntVector, set],
    rng: Random,
) -> list[RatPoint]:
    """Rational points on the sphere |x|^2 = delta_sq, each distinct and
    verified to lie on none of the construction hyperplanes.

    A seeded integer direction w through the known rational point ``base``
    meets the sphere again at base - (2<base,w>/|w|^2) w, which is rational
    and exactly on the sphere.
    """
    d = base.dim
    pads: list[RatPoint] = []
    attempts = 0
    while len(pads) < needed:
        attempts += 1
        if attempts > 256 * needed + 4096:
            raise SizeShortfall(
                "sphere padding stalled before reaching m", achieved=len(pads)
            )
        w = [rng.randint(-_SPHERE_PAD_BOX, _SPHERE_PAD_BOX) for _ in range(d)]
        wnorm = sum(c * c for c in w)
        if wnorm == 0:
            continue
        proj = sum(Fraction(c) * x for c, x in zip(w, base.coords))
        if proj == 0:
            continue
        scale = Fraction(2) * proj / wnorm
        coords = tuple(x - scale * c for x, c in zip(base.coords, w))
        if coords in existing:
            continue
        if sum(c * c for c in coords) != delta_sq:
            raise InvariantViolation("sphere padding point left the sphere")
        on_some = False
        for v in normals:
            dot = sum(a * x for a, x in zip(v.coords, coords))
            if dot in achieved[v]:
                on_some = True
                break
        if on_some:
            continue
        existing.add(coords)
        pads.append(RatPoint(coords))
    return pads


# ---------------------------------------------------------------------------
# embedding into a higher dimension
# ---------------------------------------------------------------------------


def embed_configuration(
    inner: ConstructionOutput, d_outer: int, k: int, seed: int
) -> ConstructionOutput:
    """Place a configuration inside a coordinate flat of R^{d_outer} and
    replace each hyperplane with a generic k-flat containing it.

    The carrier flat F is {x : x_j = 0 for j >= d_inner}.  Each extension
    is verified exactly to meet F in nothing but the embedded hyperplane,
    so no new incidences are created and the count is preserved.
    """
    d_inner = inner.ambient_dim
    if d_outer <= d_inner:
        raise InvalidInput("outer dimension must exceed the inner one")
    if not (d_inner - 1 <= k < d_outer):
        raise InvalidInput(
            f"need {d_inner - 1} <= k < {d_outer} for the replacement flats"
        )
    for f in inner.flats:
        if f.dim != d_inner - 1:
            raise InvalidInput("inner configuration must consist of hyperplanes")
    carrier = embedding_carrier(d_inner, d_outer)
    zeros = (Fraction(0),) * (d_outer - d_inner)
    points = tuple(RatPoint(p.coords + zeros) for p in inner.points)
    rng = Random(seed)
    new_flats: list[Flat] = []
    for f in inner.flats:
        embedded = Flat(
            d_outer,
            tuple(r + zeros for r in f.equations) + carrier.equations,
            f.rhs + carrier.rhs,
        )
        if k == d_inner - 1:
            new_flats.append(embedded)
        else:
            new_flats.append(
                generic_extension(embedded, k, d_outer, rng, within=carrier)
            )
    notes = inner.notes + (
        f"embedded from R^{d_inner} into R^{d_outer} as {k}-flats (seed {seed})",
    )
    return ConstructionOutput(
        variant="embed",
        ambient_dim=d_outer,
        points=points,
        flats=tuple(new_flats),
        normals_used=inner.normals_used,
        t_measured=inner.t_measured,
        t_verified=inner.t_verified,
        predicted_incidences=inner.predicted_incidences,
        padding_start=inner.padding_start,
        core_point_count=inner.core_point_count,
        seed=seed,
        inner_ambient_dim=d_inner,
        notes=notes,
    )


def embedding_carrier(d_inner: int, d_outer: int) -> Flat:
    """The coordinate flat of R^{d_outer} that carries an embedded R^{d_inner}."""
    rows = [
        [Fraction(int(j == i)) for j in range(d_outer)]
        for i in range(d_inner, d_outer)
    ]
    return Flat(d_outer, rows, [Fraction(0)] * (d_outer - d_inner))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def predicted_lower_bound_exponents(variant: str, d: int) -> tuple[Fraction, Fraction]:
    """Exact (m, n)-exponents of the incidence lower bound each variant is
    built to exhibit (the n-exponent carries a -eps slack in the asymptotic
    statement; the eps is rendering-only)."""
    if variant in ("a", "embed"):
        term = term_from_chain(DimensionChain([DimPair(d - 1, d)]), s=2)
        return term.alpha, term.beta
    if variant == "b":
        return (
            Fraction(3 * d * d - 9 * d + 2, (d - 2) * (3 * d - 1)),
            Fraction(2 * d, 3 * d - 1),
        )
    raise InvalidInput(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class VerificationReport:
    variant: str
    naive_count: int | None
    hashed_count: int
    core_count: int
    predicted_count: int
    counts_agree: bool | None
    matches_predicted: bool
    kst_status: str
    witness: KstWitness | None
    t_measured: int
    collinear_triple: tuple[int, int, int] | None
    predicted_exponents: tuple[Fraction, Fraction]
    notes: tuple[str, ...]


def verify_construction(
    out: ConstructionOutput,
    s: int,
    t: int,
    kst_limit: int = DEFAULT_COMPARISON_LIMIT,
    naive_limit: int = 4 * 10**7,
) -> VerificationReport:
    """Recount the instance with both strategies, search for a K_{s,t}
    witness, and compare against the predicted count and exponents."""
    notes: list[str] = []
    inst = IncidenceInstance(out.points, out.flats, s, t)
    hashed = count_incidences(inst, strategy="hashed")
    if len(out.points) * max(1, len(out.flats)) <= naive_limit:
        naive = count_incidences(inst, strategy="naive")
        counts_agree = naive == hashed
    else:
        naive = None
        counts_agree = None
        notes.append("naive recount skipped above the size cap")
    core_inst = IncidenceInstance(out.points, out.flats[: out.padding_start], s, t)
    core_count = count_incidences(core_inst, strategy="hashed")
    matches = core_count == out.predicted_incidences
    witness = None
    try:
        witness = find_kst(inst, limit=kst_limit)
        kst_status = "witness" if witness is not None else "free"
    except ResourceLimit as exc:
        kst_status = "unverified"
        notes.append(f"K_{{{s},{t}}} search unverified: {exc}")
    collinear = None
    if out.variant == "b" and len(out.points) <= 2000:
        collinear = find_collinear_triple(out.points)
    base_d = out.inner_ambient_dim or out.ambient_dim
    return VerificationReport(
        variant=out.variant,
        naive_count=naive,
        hashed_count=hashed,
        core_count=core_count,
        predicted_count=out.predicted_incidences,
        counts_agree=counts_agree,
        matches_predicted=matches,
        kst_status=kst_status,
        witness=witness,
        t_measured=out.t_measured,
        collinear_triple=collinear,
        predicted_exponents=predicted_lower_bound_exponents(out.variant, base_d),
        notes=tuple(notes),
    )
