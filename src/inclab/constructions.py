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
seeded greedy filter whose exhaustive search over spanning subsets also
measures the exact maximum number of chosen directions inside any linear
subspace of the guarded dimension.  All downstream freeness claims use
the measured value, never an asymptotic promise.

Constructions are deterministic: identical configuration plus seed gives a
bit-identical output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from random import Random
from operator import length_hint
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import InvalidInput, InvariantViolation, SizeShortfall
from .exponents import DimensionChain, DimPair, term_from_chain
from .geometry import (
    Flat,
    FlatFamily,
    IntVector,
    PointRows,
    RatPoint,
    _extension_rows,
    _finite,
    _flat_family,
    _hyperplanes,
    _int,
    _int_arrays,
    _int_point_matrix,
    _split_coords,
    find_collinear_triple,
    is_primitive,
)
from .incidence import (
    DEFAULT_COMPARISON_LIMIT,
    IncidenceInstance,
    KstWitness,
    _count_hashed,
    _dot_values,
    _heaviest_span,
    _int_root_floor,
    _max_subspace_weight,
    count_incidences,
    kst_verdict,
)

DEFAULT_EPSILON_PRIME = 0.1
_GRID_LIMIT = 10**7
_NAIVE_LIMIT = 4 * 10**8  # point-flat pairs up to which verify also counts naively
_COLLINEAR_LIMIT = 2000  # sphere points up to which verify scans for collinear triples
_PAD_NORMAL_BOX = 3
_WORD_CHUNK = 4096  # 32-bit words a padding draws from its Random at a time
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
        for name in ("d", "m", "n", "s", "seed", "t_cap", "box_side"):
            value = getattr(self, name)
            if value is not None or name not in ("t_cap", "box_side"):
                _int(value, name)
        if self.d < 2:
            raise InvalidInput("ambient dimension must be at least 2")
        if self.m < 1 or self.n < 1:
            raise InvalidInput("m and n must be positive")
        if self.box_side is not None and self.box_side < 1:
            raise InvalidInput(f"box side must be at least 1, got {self.box_side}")
        _finite(self.epsilon_prime, "epsilon_prime")


@dataclass(frozen=True)
class NormalSelection:
    """Sorted normals, their exact coverage ``t_measured`` of one guarded
    subspace, and the number ``requested``; ``verified`` is always true."""

    vectors: tuple[IntVector, ...]
    t_measured: int
    verified: bool
    requested: int


@dataclass(frozen=True)
class ConstructionOutput:
    """A generated configuration plus its verified bookkeeping.

    ``flats[:padding_start]`` are the construction hyperplanes; the rest
    are padding, each verified to contain no point.  The flats of a
    generator, an embedding or a loaded file are one :class:`FlatFamily`,
    and their points :class:`PointRows`, which build a ``Flat`` or a
    ``RatPoint`` only when one is read.  For sphere instances
    ``points[core_point_count:]`` are padded sphere points, each verified
    to lie on no hyperplane.
    """

    variant: str
    ambient_dim: int
    points: Sequence[RatPoint]
    flats: Sequence[Flat]
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


def _box(low: int, high: int, d: int) -> np.ndarray:
    """The integer points of ``[low, high]^d`` as int64 rows, in
    lexicographic order."""
    side = high - low + 1
    if side**d > _GRID_LIMIT:
        raise InvalidInput(f"integer box of side {side} in R^{d} is beyond desk scale")
    # one (d, side^d) index array, read point by point through its transpose
    points = np.indices((side,) * d, dtype=np.int64).reshape(d, -1).T
    points += low
    return points


def lattice_points(d: int, m: int) -> Sequence[RatPoint]:
    """The first ``m`` points, in lexicographic order, of the integer grid
    ``{0, ..., g-1}^d`` with the smallest side ``g`` satisfying g^d >= m,
    as the rows of the box."""
    if _int(m, "m") < 1:
        raise InvalidInput("m must be positive")
    if _int(d, "d") < 1:
        raise InvalidInput("d must be positive")
    side = _int_root_floor(m - 1, d) + 1
    return PointRows._of(d, _box(0, side - 1, d)[:m], np.ones(m, np.int64))


def primitive_vectors(box_side: int, d: int) -> list[IntVector]:
    """All primitive vectors in the centered box of side ``box_side``,
    deduplicated up to sign (lexicographically positive representative),
    in lexicographic order.

    The box holds the integer points with every coordinate in
    ``[-floor(box_side/2), floor(box_side/2)]``.
    """
    if _int(box_side, "box side") < 1:
        raise InvalidInput("box side must be positive")
    if _int(d, "d") < 1:
        raise InvalidInput("d must be positive")
    half = box_side // 2
    box = _box(-half, half, d)
    # negation reverses lexicographic order, so the zero vector sits in the
    # middle and the rows after it are those whose first nonzero entry is
    # positive: one representative of each {v, -v}
    positive = box[len(box) // 2 + 1 :]
    primitive = positive[np.gcd.reduce(positive, axis=1) == 1]
    return [IntVector(row) for row in primitive.tolist()]


# ---------------------------------------------------------------------------
# admissible normal selection
# ---------------------------------------------------------------------------


def select_admissible_normals(
    candidates: Sequence[IntVector], flat_dim: int, t_max: int, target_size: int, seed: int
) -> NormalSelection:
    """Greedy selection of normals so that no linear subspace of dimension
    ``flat_dim`` contains more than ``t_max`` of them.

    Candidates are visited in seeded random order, and each is accepted
    when no span of itself and ``flat_dim - 1`` accepted normals holds more
    than ``t_max`` of them.  The largest such load among the accepted
    normals is ``t_measured``, the exact coverage of the final set.
    """
    for value, what in ((flat_dim, "flat_dim"), (t_max, "t_max"),
                        (target_size, "target_size"), (seed, "seed")):
        _int(value, what)
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

    coords: list[tuple[int, ...]] = []  # the accepted normals
    split, weights = _split_coords(coords, d), np.ones(0, np.int64)
    t_measured = 0
    for cand in order:
        if len(coords) >= target_size:
            break
        load = 1 + _heaviest_span(
            (cand.coords,), coords, split, weights, flat_dim, t_max - 1
        )
        if load > t_max:
            continue
        # the largest load is the exact coverage: each checked span has
        # dimension at most flat_dim, so no load exceeds it; and the last
        # normal accepted into a subspace W checks a span (itself and
        # flat_dim - 1 earlier normals) holding every earlier member of W
        t_measured = max(t_measured, load)
        coords.append(cand.coords)
        split, weights = _split_coords(coords, d), np.ones(len(coords), np.int64)
    vectors = tuple(map(IntVector, sorted(coords)))
    return NormalSelection(vectors, t_measured, True, target_size)


def measure_max_coverage(
    vectors: Sequence[IntVector], flat_dim: int, limit: int = DEFAULT_COMPARISON_LIMIT
) -> tuple[int, bool]:
    """Exact maximum number of ``vectors`` inside any linear subspace of
    dimension ``flat_dim``, by exhaustive search over spanning subsets."""
    coords = [v.coords for v in vectors]
    best = _max_subspace_weight(
        coords, [1] * len(coords), _int(flat_dim, "flat_dim"), _int(limit, "limit"))
    # trivial bound; marked unverified above the size cap
    return (len(vectors), False) if best is None else (best, True)


# ---------------------------------------------------------------------------
# construction (both variants)
# ---------------------------------------------------------------------------


def _box_side(d: int, m: int, n: int, eps: float, slope: int, power: int) -> float:
    """The normal-box side n^((d-1)/D) / m^((d-1)/(power D)), where
    D = slope d - 1 - (d-1) eps."""
    denom = slope * d - 1 - (d - 1) * eps
    return n ** ((d - 1) / denom) / m ** ((d - 1) / (power * denom))


def _achieved_offsets(v: IntVector, split: PointRows) -> set:
    """Exact set of dot products <v, p> over the split points."""
    dots = _dot_values(split, v.coords)
    if dots.dtype != object:
        # with counts, np.unique sorts; without, numpy 2 hashes every value,
        # several times slower here, and imports numpy.ma on first use
        dots = np.unique(dots, return_counts=True)[0]
    return set(dots.tolist())


def _core_hyperplanes(
    normals: Sequence[IntVector], split: PointRows
) -> tuple[FlatFamily, dict[IntVector, set]]:
    """One hyperplane per normal and achieved offset, in that order, as one
    family of one-row blocks; and the offset sets."""
    achieved = {v: _achieved_offsets(v, split) for v in normals}
    offsets = [sorted(achieved[v]) for v in normals]
    family = _hyperplanes(
        split.ambient_dim,
        [v.coords for v in normals],
        np.repeat(np.arange(len(normals)), [len(cs) for cs in offsets]),
        [c for cs in offsets for c in cs],
    )
    return family, achieved


def _words(rng: Random) -> Iterator[int]:
    """The 32-bit words of ``rng``'s stream, in order, drawn
    ``_WORD_CHUNK`` at a time: ``getrandbits(32 c)`` is c words of the
    stream, the first one lowest, so one call and a little-endian read give
    c of them.  Closing the generator gives back the words drawn and not
    yet taken: ``rng`` is set to its state before the last chunk, and that
    chunk's taken words are drawn again with one ``getrandbits``."""
    while True:
        state = rng.getstate()
        bits = rng.getrandbits(32 * _WORD_CHUNK)
        chunk = iter(np.frombuffer(bits.to_bytes(4 * _WORD_CHUNK, "little"), "<u4").tolist())
        try:
            yield from chunk
        except GeneratorExit:
            rng.setstate(state)
            rng.getrandbits(32 * (_WORD_CHUNK - length_hint(chunk)))
            raise


def _randbelow(word: Callable[[], int], w: int) -> int:
    """``Random._randbelow(w)`` of CPython 3.11 for w >= 1, on the stream's
    words ``word()`` returns, so ``a + _randbelow(word, b - a + 1)`` is
    ``randint(a, b)``: ``getrandbits(k)`` for k = w.bit_length(), drawn
    again while it is w or more.  ``getrandbits(k)`` takes ceil(k / 32)
    words, the first one lowest, and keeps the top k mod 32 bits of the
    last one when 32 does not divide k."""
    k = w.bit_length()
    if k <= 32:  # one word a draw
        shift = 32 - k
        r = word() >> shift
        while r >= w:
            r = word() >> shift
        return r
    full, top = divmod(k - 1, 32)  # the words below the last, and its bits - 1
    while True:
        r = 0
        for low in range(0, 32 * full, 32):
            r |= word() << low
        r |= word() >> (31 - top) << (32 * full)
        if r < w:
            return r


def _pad_hyperplanes(
    split: PointRows,
    count: int,
    d: int,
    rng: Random,
    achieved: dict[IntVector, set],
) -> FlatFamily:
    """``count`` hyperplanes, each verified to contain no point, as one
    family of one-row blocks over the seeded pool of padding normals.

    A normal's full offset set over the points is computed once, or taken
    from ``achieved``; an offset outside it proves the hyperplane is
    point-free.  Each offset is the ``rng.randint`` draw, replayed from
    words of ``rng`` (:func:`_words`, :func:`_randbelow`); ``rng`` ends
    where those calls would leave it.
    """
    pool = primitive_vectors(2 * _PAD_NORMAL_BOX, d)
    rng.shuffle(pool)
    # by pool index: its offset set plus the offsets drawn for it, and the
    # least offset and the number of offsets its draws range over
    taken: list[set | None] = [None] * len(pool)
    spans: list[tuple[int, int]] = [(0, 0)] * len(pool)
    normal_ids: list[int] = []
    offsets: list[int] = []
    words = _words(rng)
    word = words.__next__
    placed = attempts = 0
    try:
        while placed < count:
            attempts += 1
            if attempts > 64 * count + 1024:
                raise SizeShortfall(
                    f"could not place {count} point-free hyperplanes", achieved=placed
                )
            i = (placed + attempts) % len(pool)
            if taken[i] is None:
                v = pool[i]
                taken[i] = set(achieved[v]) if v in achieved else _achieved_offsets(v, split)
                ints = [x for x in taken[i] if type(x) is int]
                low, high = min(ints, default=0), max(ints, default=0)
                spans[i] = (low - count - 8, high - low + 2 * count + 17)
            least, width = spans[i]
            offset = least + _randbelow(word, width)
            if offset in taken[i]:
                continue
            taken[i].add(offset)
            normal_ids.append(i)
            offsets.append(offset)
            placed += 1
    finally:
        words.close()
    return _hyperplanes(d, [v.coords for v in pool], normal_ids, offsets)


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
    core, achieved = _core_hyperplanes(selection.vectors, core_points)
    notes.append(
        f"box side {box} (formula value {box_real:.4f}), |V|={len(selection.vectors)},"
        f" core hyperplanes {len(core)}"
    )
    points = core_points
    if variant == "b" and len(points) < m:
        if delta_sq == 0:
            raise SizeShortfall(
                "cannot pad a zero-radius sphere", achieved=len(points)
            )
        # the bucket's points are integer points: each row is its coordinates
        pads = _sphere_pad_points(
            points[0], delta_sq, m - len(points), set(map(tuple, points.matrix.tolist())),
            selection.vectors, achieved, rng,
        )
        notes.append(f"padded {len(pads)} rational sphere points to reach m={m}")
        points = core_points + tuple(pads)
        # padding hyperplanes below must also avoid the padded points, so
        # the cached offset sets have to cover them
        achieved = {v: _achieved_offsets(v, points) for v in achieved}
    flats = core
    if cfg.pad and len(core) < n:
        flats = core + _pad_hyperplanes(points, n - len(core), d, rng, achieved)
    elif len(core) > n:
        notes.append(f"core family already exceeds n: {len(core)} > {n}; kept all")
    return ConstructionOutput(
        variant=variant,
        ambient_dim=d,
        points=points,
        flats=flats,
        normals_used=selection.vectors,
        t_measured=selection.t_measured,
        t_verified=selection.verified,
        predicted_incidences=len(core_points) * len(selection.vectors),
        padding_start=len(core),
        core_point_count=len(core_points),
        seed=cfg.seed,
        notes=tuple(notes),
    )


def _sphere_grid_bucket(d: int, m: int) -> tuple[PointRows, int, int]:
    """Points of the densest origin-centered sphere in the sizing grid.

    The grid has side ceil(m^(1/(d-2))) in R^d, so the pigeonhole over the
    O(m^(2/(d-2))) possible squared distances leaves a bucket of size
    Omega(m).  Ties pick the smallest squared radius; the bucket is
    truncated lexicographically to at most m points, kept as box rows.
    """
    side = _int_root_floor(m - 1, d - 2) + 1
    coords = _box(0, side - 1, d)
    squares = (coords * coords).sum(axis=1)
    values, counts = np.unique(squares, return_counts=True)
    delta_sq = int(values[int(np.argmax(counts))])
    rows = coords[squares == delta_sq][:m]
    return PointRows._of(d, rows, np.ones(len(rows), np.int64)), delta_sq, side


def _sphere_pad_points(
    base: RatPoint,
    delta_sq: int,
    needed: int,
    existing: set[tuple[int | Fraction, ...]],
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
        proj = sum(c * x for c, x in zip(w, base.coords))
        if proj == 0:
            continue
        scale = Fraction(2 * proj, wnorm)
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

    The hyperplanes are read as one :class:`FlatFamily`.  For k = d_inner
    - 1 each keeps its rows, with zeros in F's columns, then F's unit rows
    (:func:`_carried`).  Otherwise each is its first row with a nonzero
    coefficient, a primitive integer row [a | c] (:func:`_hyperplane_rows`),
    and every step is one pass over all of them: one
    :func:`linalg.nullspaces` of the [a | -c] stack reads each embedded
    hyperplane's directions and base point ``P / q`` (``Flat._solved``'s
    values), and the draws are :func:`_extension_rows` on one ``Random``,
    :func:`generic_extension`'s values.  Each accepted row over ``qn`` is
    kept as integers, ``row * q`` and ``row @ P`` over ``qn * q``, in the
    dtype :func:`linalg._exact_dtype` allows.
    """
    d_inner = inner.ambient_dim
    if _int(d_outer, "d_outer") <= d_inner:
        raise InvalidInput("outer dimension must exceed the inner one")
    if not (d_inner - 1 <= _int(k, "k") < d_outer):
        raise InvalidInput(
            f"need {d_inner - 1} <= k < {d_outer} for the replacement flats"
        )
    hyperplanes = _flat_family(inner.flats, d_inner)
    if len(hyperplanes) and (hyperplanes.ambient_dim != d_inner
                             or (hyperplanes.dims != d_inner - 1).any()):
        raise InvalidInput(f"inner configuration must consist of hyperplanes of R^{d_inner}")
    rows = _int_point_matrix(inner.points)
    if len(rows) and rows.ambient_dim != d_inner:
        raise InvalidInput(f"inner configuration must consist of points of R^{d_inner}")
    carrier = embedding_carrier(d_inner, d_outer)
    # a zero column appended to P keeps each row primitive over its q
    padding = np.zeros((len(rows), d_outer - d_inner), rows.matrix.dtype)
    points = PointRows._of(d_outer, np.hstack((rows.matrix, padding)), rows.q)
    rng = Random(_int(seed, "seed"))
    if k == d_inner - 1:
        flats = _carried(hyperplanes, d_outer)
    else:
        top = _hyperplane_rows(hyperplanes)
        top[:, -1] *= -1
        q, found, _ = linalg.nullspaces(top[:, None, :])
        point = np.zeros((len(top), d_outer), dtype=found.dtype)
        point[:, :d_inner] = found[:, -1, :-1]
        directions = np.zeros((len(top), d_inner - 1, d_outer), dtype=found.dtype)
        directions[:, :, :d_inner] = found[:, :-1, :-1]
        units = np.array(carrier.equations, dtype=np.int64)
        qn, normal_rows = _extension_rows(directions, k, rng, units)
        # every entry and partial sum of row * q, row @ P and qn * q
        large = [max(linalg._largest(a), 1) for a in (normal_rows, q, qn, point)]
        bound = max(large[0] * large[1], large[0] * d_inner * large[3], large[2] * large[1])
        dtype = object if linalg._exact_dtype(bound) is object else np.int64
        normal_rows, q, qn, point = (a.astype(dtype) for a in (normal_rows, q, qn, point))
        blocks = np.concatenate((normal_rows * q[:, None, None],
                                 normal_rows @ point[:, :, None]), axis=2)
        dens = np.repeat((qn * q)[:, None], d_outer - k, axis=1)
        flats = FlatFamily._of(d_outer, d_outer - k, blocks, dens)
    notes = inner.notes + (
        f"embedded from R^{d_inner} into R^{d_outer} as {k}-flats (seed {seed})",
    )
    return replace(
        inner,
        variant="embed",
        ambient_dim=d_outer,
        points=points,
        flats=flats,
        seed=seed,
        inner_ambient_dim=d_inner,
        notes=notes,
    )


def _carried(family: FlatFamily, d_outer: int) -> FlatFamily:
    """The hyperplanes ``family`` of R^d embedded in the carrier {x_j = 0
    for j >= d} of R^``d_outer``: each flat's rows as they are, with zeros
    in the carrier's columns, and after its last row the carrier's unit
    rows over 1."""
    d, n, extra = family.ambient_dim, len(family), d_outer - family.ambient_dim
    after = np.repeat(family.starts[1:], extra)
    rows = np.insert(np.insert(family.rows, [d] * extra, 0, axis=1), after,
                     np.tile(np.eye(d_outer + 1, dtype=np.int64)[d:d_outer], (n, 1)), axis=0)
    return FlatFamily._from(d_outer, rows, np.insert(family.den, after, 1),
                            family.starts + extra * np.arange(n + 1), family.dims)


def _hyperplane_rows(family: FlatFamily) -> np.ndarray:
    """The hyperplanes ``family`` of R^d as primitive integer rows [a | c],
    one per flat, of the dtype :func:`_int_arrays` picks: each flat's first
    row with a nonzero coefficient (its denominator does not change the
    hyperplane).  A flat of dimension d - 1 is consistent, so each of its
    rows with a nonzero coefficient is a multiple of that one."""
    rows = family.rows
    lead = np.where(linalg._any_last(rows[:, :-1] != 0), np.arange(len(rows)), len(rows))
    (rows,), _ = _int_arrays(rows[np.minimum.reduceat(lead, family.starts[:-1])])
    return rows // np.gcd.reduce(rows, axis=1, initial=0)[:, None]


def embedding_carrier(d_inner: int, d_outer: int) -> Flat:
    """The coordinate flat of R^{d_outer} that carries an embedded R^{d_inner}."""
    rows = [[int(j == i) for j in range(d_outer)]
            for i in range(_int(d_inner, "d_inner"), _int(d_outer, "d_outer"))]
    return Flat(d_outer, rows, [0] * (d_outer - d_inner))


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
) -> VerificationReport:
    """Recount the instance with both strategies, search for a K_{s,t}
    witness, and compare against the predicted count and exponents."""
    notes: list[str] = []
    inst = IncidenceInstance(out.points, out.flats, s, t)
    hashed = count_incidences(inst, strategy="hashed")
    if len(out.points) * max(1, len(out.flats)) <= _NAIVE_LIMIT:
        naive = count_incidences(inst, strategy="naive")
        counts_agree = naive == hashed
    else:
        naive = None
        counts_agree = None
        notes.append("naive recount skipped above the size cap")
    # the core flats are a prefix, counted from the classification shared
    # by the hashed count above and the K_{s,t} search below
    core_count = _count_hashed(inst, out.padding_start)
    matches = core_count == out.predicted_incidences
    kst_status, witness, gave_up = kst_verdict(inst, kst_limit)
    if gave_up is not None:
        notes.append(f"K_{{{s},{t}}} search {kst_status}: {gave_up}")
    collinear = None
    if out.variant == "b":
        if len(out.points) <= _COLLINEAR_LIMIT:
            collinear = find_collinear_triple(out.points)
        else:
            notes.append("collinearity scan skipped above the size cap")
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
