"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
library paths it checks: determinant-by-cofactor rank, Fraction
Gauss-Jordan elimination, direct membership evaluation, exhaustive chain
enumeration, and recursive gcd.  Slow is fine; these run on small inputs
only.  Four use the library, each for a reason.  The ``Flat``
constructor builds the result of :func:`generic_extension_fraction`:
that constructor's elimination is the slow path it stands for.
:func:`pad_hyperplanes_loop` draws through ``Random.randint`` and takes
the normal pool, the offset sets and the family from the library, whose
word replay it checks.  :func:`embed_extensions_loop` is the embedding
flat by flat on the library's elimination kernel (``integer_rref``,
``solve_rref`` and ``nullspace``), the slow path that the batched
maximal minors replace.  :func:`family_per_pair` checks each pair with
the loader's own pair check, whose errors the array decode must leave to
the flat-by-flat path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from inclab import Flat, linalg


def gcd_euclid(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd_euclid(g, v)
    return g


def determinant(matrix) -> Fraction:
    """Cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        entry = Fraction(matrix[0][j])
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * entry * determinant(minor)
    return total


def minor_rank(matrix) -> int:
    """Rank as the size of the largest nonzero square minor."""
    if not matrix:
        return 0
    rows = [[Fraction(x) for x in row] for row in matrix]
    n_rows, n_cols = len(rows), len(rows[0])
    for size in range(min(n_rows, n_cols), 0, -1):
        for row_idx in combinations(range(n_rows), size):
            for col_idx in combinations(range(n_cols), size):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if determinant(sub) != 0:
                    return size
    return 0


def fraction_row_echelon(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions,
    with the pivot column indices; zero rows stay at the bottom."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def fraction_solve_affine(a, b):
    """``(particular, nullspace_basis)`` of ``a @ x = b`` read off the
    :func:`fraction_row_echelon` of ``[a | b]``, or ``None`` when it is
    inconsistent."""
    n_cols = len(a[0])
    red, pivots = fraction_row_echelon([list(row) + [bi] for row, bi in zip(a, b)])
    if n_cols in pivots:
        return None
    particular = [Fraction(0)] * n_cols
    for i, c in enumerate(pivots):
        particular[c] = red[i][n_cols]
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return particular, basis


def generic_extension_fraction(h, target_dim, ambient_dim, rng, within, retry_budget, box):
    """A generic extension the slow way, drawing from ``rng`` exactly as the
    library does: h's point and directions from ``h.solution()``, the
    direction nullspace and the guard rank by :func:`fraction_row_echelon`,
    right-hand sides as ``Fraction`` dots, and the candidate built by
    ``Flat(...)``, which eliminates its system again.  Raises ``ValueError``
    when ``within`` does not contain h; ``None`` when every draw is
    degenerate."""
    point, directions = h.solution()
    if within is not None and not (
        point_on_flat(point.coords, within.equations, within.rhs)
        and all(_fraction_dot(row, v) == 0 for row in within.equations for v in directions)
    ):
        raise ValueError("guard flat must contain the flat being extended")
    extra = target_dim - h.dim
    for _ in range(retry_budget):
        drawn = [[rng.randint(-box, box) for _ in range(ambient_dim)] for _ in range(extra)]
        stacked = [list(v) for v in directions] + drawn
        normal_rows = fraction_solve_affine(stacked, [0] * len(stacked))[1]
        if ambient_dim - len(normal_rows) != target_dim:
            continue
        rhs = [_fraction_dot(row, point.coords) for row in normal_rows]
        candidate = Flat(ambient_dim, normal_rows, rhs)
        if within is not None:
            guard_rows = [[_fraction_dot(row, e) for e in drawn] for row in within.equations]
            if len(fraction_row_echelon(guard_rows)[1]) != len(drawn):
                continue
        return candidate
    return None


def embed_extensions_loop(flats, d_inner, d_outer, k, rng, box, retry_budget):
    """The row blocks and denominators of the generic k-flats that extend
    the hyperplanes ``flats`` of R^d_inner, embedded in the carrier
    {x_j = 0 for j >= d_inner} of R^d_outer, flat by flat: each
    hyperplane's first equation with a nonzero coefficient as a primitive
    integer row, its base point ``P / q`` and directions read by
    ``solve_rref`` with the carrier's unit rows, and then draws of
    ``rng.randint(-box, box)``, each checked by one ``nullspace`` and the
    rank of the guard product (one ``integer_rref``), until one is
    accepted.  Each accepted nullspace row over ``qn`` gives the row
    ``row * q | row @ P`` over ``qn * q``.  ``None`` when a flat's
    ``retry_budget`` draws are all rejected."""
    zeros = [0] * (d_outer - d_inner)
    units = [[int(j == i) for j in range(d_outer)] + [0] for i in range(d_inner, d_outer)]
    blocks, dens = [], []
    for f in flats:
        a, c = next((a, c) for a, c in zip(f.equations, f.rhs) if any(a))
        top = linalg._integer_row(list(a) + zeros + [c])
        pivot = next(i for i, x in enumerate(top) if x)
        point, q, directions = linalg.solve_rref(
            [top] + units, [pivot] + list(range(d_inner, d_outer)), d_outer)
        for _ in range(retry_budget):
            drawn = [[rng.randint(-box, box) for _ in range(d_outer)]
                     for _ in range(k - len(directions))]
            qn, normal_rows = linalg.nullspace(directions + drawn)
            if d_outer - len(normal_rows) != k:
                continue
            guard = [[e[i] for e in drawn] for i in range(d_inner, d_outer)]
            if len(linalg.integer_rref(guard)[1]) == len(drawn):
                break
        else:
            return None
        blocks.append([[x * q for x in row] + [sum(x * y for x, y in zip(row, point))]
                       for row in normal_rows])
        dens.append([qn * q] * len(normal_rows))
    return blocks, dens


def _fraction_dot(a, b) -> Fraction:
    total = Fraction(0)
    for x, y in zip(a, b):
        total += Fraction(x) * Fraction(y)
    return total


def point_on_flat(coords, equations, rhs) -> bool:
    """Direct substitution of a point into a linear system."""
    for row, c in zip(equations, rhs):
        total = Fraction(0)
        for a, x in zip(row, coords):
            total += Fraction(a) * Fraction(x)
        if total != Fraction(c):
            return False
    return True


def flats_equal_fraction(f1, f2) -> bool:
    """Set equality the slow way, by mutual containment: the row spaces
    coincide (equal ranks, and stacking the two systems adds no rank, each
    rank by :func:`fraction_row_echelon`), and a point of ``f1`` from
    :func:`fraction_solve_affine` satisfies ``f2`` (:func:`point_on_flat`)."""
    def rank(rows):
        return len(fraction_row_echelon(rows)[1])

    r1 = rank(f1.equations)
    if rank(f2.equations) != r1 or rank(f1.equations + f2.equations) != r1:
        return False
    point = fraction_solve_affine(f1.equations, f1.rhs)[0] if f1.equations else [0] * f1.ambient_dim
    return point_on_flat(point, f2.equations, f2.rhs)


def count_incidences_direct(points, flats) -> int:
    """Pair-by-pair substitution count; independent of the library."""
    total = 0
    for f in flats:
        for p in points:
            if point_on_flat(p.coords, f.equations, f.rhs):
                total += 1
    return total


def hyperplane_groups_nested(flats):
    """Hyperplane indices by primitive normal, then by offset, in nested
    dicts, and the indices of every other flat; flat by flat, the key of a
    flat with one nonzero equation read with Fractions: the row times the
    lcm L of its denominators, over the gcd g of that, signed as its first
    nonzero entry, and the offset c L / g."""
    groups, others = {}, []
    for j, f in enumerate(flats):
        if len(f.equations) != 1 or not any(f.equations[0]):
            others.append(j)
            continue
        row = [Fraction(a) for a in f.equations[0]]
        lcm = 1
        for a in row:
            lcm = lcm * a.denominator // gcd_euclid(lcm, a.denominator)
        ints = [int(a * lcm) for a in row]
        g = gcd_all(ints) * (-1 if next(v for v in ints if v) < 0 else 1)
        offset = Fraction(f.rhs[0]) * lcm / g
        offset = offset.numerator if offset.denominator == 1 else offset
        groups.setdefault(tuple(v // g for v in ints), {}).setdefault(offset, []).append(j)
    return groups, others


def runs_as_nested(runs):
    """The library's hyperplane runs (``incidence._Runs``) read back into
    the nested form of :func:`hyperplane_groups_nested`."""
    groups = {}
    order, offsets = runs.order.tolist(), runs.offsets.tolist()
    bounds = runs.starts.tolist() + [len(order)]
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        normal = tuple(runs.keys[runs.run_key[r]].tolist())
        groups.setdefault(normal, {})[offsets[r]] = order[lo:hi]
    return groups, runs.others.tolist()


def same_runs(runs, other) -> bool:
    """Whether two run classifications are equal field by field, values
    compared exactly whatever the array dtypes."""
    return [field.tolist() for field in runs] == [field.tolist() for field in other]


def pad_hyperplanes_loop(split, count, d, rng, achieved):
    """The padding hyperplanes one ``rng.randint`` call per attempt, with
    the drawn (pool index, offset) pairs in one set: the library's padding
    before it replayed its draws from words of ``rng``."""
    from inclab.constructions import _PAD_NORMAL_BOX, _achieved_offsets, primitive_vectors
    from inclab.geometry import _hyperplanes

    pool = primitive_vectors(2 * _PAD_NORMAL_BOX, d)
    rng.shuffle(pool)
    offset_sets = [None] * len(pool)
    ranges = [(0, 0)] * len(pool)
    normal_ids, offsets, used = [], [], set()
    attempts = 0
    while len(offsets) < count:
        attempts += 1
        if attempts > 64 * count + 1024:
            raise AssertionError("the reference loop gave up")
        i = (len(offsets) + attempts) % len(pool)
        if offset_sets[i] is None:
            v = pool[i]
            offset_sets[i] = achieved[v] if v in achieved else _achieved_offsets(v, split)
            ints = [x for x in offset_sets[i] if type(x) is int]
            ranges[i] = (min(ints, default=0), max(ints, default=0))
        low, high = ranges[i]
        offset = rng.randint(low - count - 8, high + count + 8)
        if offset in offset_sets[i] or (i, offset) in used:
            continue
        used.add((i, offset))
        normal_ids.append(i)
        offsets.append(offset)
    return _hyperplanes(d, [v.coords for v in pool], normal_ids, offsets)


def family_per_pair(dim: int, specs):
    """The flats ``specs`` of an instance document decoded one pair at a
    time, as the loader did before it decoded arrays: ``(rows, den)`` as
    nested lists, each equation's pairs scaled by the lcm of its
    denominators, when every flat is a system of the same number r >= 1
    of equations of ``dim`` entries; otherwise ``None``.  A bad pair raises the
    loader's own pair error (``serialization._pair``), in the order the
    flat-by-flat path decodes the pairs."""
    from inclab.serialization import _pair

    blocks, dens = [], []
    for spec in specs:
        rows, rhs = (spec.get("A"), spec.get("b")) if isinstance(spec, dict) else (0, 0)
        if not (isinstance(rows, list) and isinstance(rhs, list)
                and len(blocks[0] if blocks else rows) == len(rows) == len(rhs) >= 1
                and all(isinstance(row, list) and len(row) == dim for row in rows)):
            return None
        pairs = [[_pair(a) for a in row] for row in rows]
        for row, c in zip(pairs, map(_pair, rhs)):
            row.append(c)
        block, den = [], []
        for row in pairs:
            q = 1
            for _, d in row:
                q = q * abs(d) // gcd_euclid(q, d)
            block.append([num * (q // d) for num, d in row])
            den.append(q)
        blocks.append(block)
        dens.append(den)
    return (blocks, dens) if blocks else None


def first_kst_bruteforce(points, flats, s: int, t: int, side: str):
    """The first K_{s,t} witness in ``itertools.combinations`` order, as
    ``(point_indices, flat_indices)``, or ``None``.

    ``side="points"`` walks s-subsets of points and takes the t lowest
    common flats; ``side="flats"`` walks t-subsets of flats and takes the s
    lowest common points.  Incidence is direct substitution.
    """
    on = [[point_on_flat(p.coords, f.equations, f.rhs) for f in flats] for p in points]
    if side == "points":
        for subset in combinations(range(len(points)), s):
            common = [j for j in range(len(flats)) if all(on[i][j] for i in subset)]
            if len(common) >= t:
                return subset, tuple(common[:t])
        return None
    for subset in combinations(range(len(flats)), t):
        common = [i for i in range(len(points)) if all(on[i][j] for j in subset)]
        if len(common) >= s:
            return tuple(common[:s]), subset
    return None


def max_subspace_weight_bruteforce(vectors, weights, flat_dim: int) -> int:
    """Largest total weight of a subset of ``vectors`` whose rank is at most
    ``flat_dim``, over every subset, by minor rank."""
    best = 0
    for size in range(len(vectors) + 1):
        for subset in combinations(range(len(vectors)), size):
            if minor_rank([list(vectors[i]) for i in subset]) <= flat_dim:
                best = max(best, sum(weights[i] for i in subset))
    return best


def most_sharing_bruteforce(member_lists, s: int) -> int:
    """The most of ``member_lists`` holding one s-subset, over every
    s-subset of their union, each checked against every list."""
    union = sorted(set().union(*map(set, member_lists)))
    return max(
        (sum(set(subset) <= set(members) for members in member_lists)
         for subset in combinations(union, s)),
        default=0,
    )


def point_split_loop(points):
    """A point split made one coordinate at a time: each point as the
    integer row of its coordinates times their least common denominator q,
    with q, and the largest of every row entry and q in absolute value."""
    rows, qs, max_abs = [], [], 0
    for p in points:
        coords = [Fraction(c) for c in p.coords]
        den = 1
        for c in coords:
            den = den * c.denominator // gcd_euclid(den, c.denominator)
        rows.append([int(c * den) for c in coords])
        qs.append(den)
        max_abs = max([max_abs, den] + [abs(x) for x in rows[-1]])
    return rows, qs, max_abs


def lattice_points_product(d: int, m: int) -> list[tuple[int, ...]]:
    """The first m points of the smallest grid {0, ..., g-1}^d holding m,
    in ``itertools.product`` order."""
    side = int_root_floor(m - 1, d) + 1
    out = []
    for coords in product(range(side), repeat=d):
        if len(out) == m:
            break
        out.append(coords)
    return out


def primitive_vectors_product(box_side: int, d: int) -> list[tuple[int, ...]]:
    """The vectors of the centered box of side ``box_side`` whose first
    nonzero entry is positive and whose entries have gcd 1, tested one by
    one in ``itertools.product`` order."""
    half = box_side // 2
    out = []
    for coords in product(range(-half, half + 1), repeat=d):
        nonzero = [c for c in coords if c != 0]
        if nonzero and nonzero[0] > 0 and gcd_all(coords) == 1:
            out.append(coords)
    return out


def collinear_triples_bruteforce(points) -> list[tuple[int, int, int]]:
    """All collinear triples, by a 2x-minor rank test on the differences."""
    out = []
    n = len(points)
    for i, j, k in combinations(range(n), 3):
        a = [x - y for x, y in zip(points[j].coords, points[i].coords)]
        b = [x - y for x, y in zip(points[k].coords, points[i].coords)]
        if minor_rank([a, b]) <= 1:
            out.append((i, j, k))
    return out


def problematic_pairs_bruteforce(k: int, d: int) -> set[tuple[int, int]]:
    """Definition-level enumeration of the dimension pairs whose ratio
    strictly exceeds k/d while staying below 1."""
    out = set()
    for kk in range(1, k + 1):
        for dd in range(2, d + 1):
            if Fraction(k, d) < Fraction(kk, dd) < 1:
                out.add((kk, dd))
    return out


def chains_bruteforce(k: int, d: int, half_ratio_only: bool = False) -> set[tuple]:
    """All valid chains starting at (k, d), by filtering every subset.

    The strict decrease of the second coordinate forces a unique ordering
    on any candidate set of pairs, so subsets are enough.  Only intended
    for small d (the subset count is 2^|pairs|).
    """
    pool = sorted(problematic_pairs_bruteforce(k, d))
    if half_ratio_only:
        pool = [(kk, dd) for kk, dd in pool if Fraction(kk, dd) <= Fraction(1, 2)]
    chains: set[tuple] = set()
    for size in range(len(pool) + 1):
        for subset in combinations(pool, size):
            chain = [(k, d)] + sorted(subset, key=lambda p: -p[1])
            ok = True
            for (k0, d0), (k1, d1) in zip(chain, chain[1:]):
                if not (k0 >= k1 and d0 > d1 and Fraction(k0, d0) < Fraction(k1, d1)):
                    ok = False
                    break
            if ok and all(kk < dd and dd >= 2 and kk >= 1 for kk, dd in chain):
                chains.add(tuple(chain))
    return chains


def int_root_floor(x: int, r: int) -> int:
    """Largest integer whose r-th power is <= x (x >= 0, r >= 1)."""
    if x < 0 or r < 1:
        raise ValueError("domain error")
    if x in (0, 1) or r == 1:
        return x
    low, high = 0, 1
    while high**r <= x:
        high *= 2
    while high - low > 1:
        mid = (low + high) // 2
        if mid**r <= x:
            low = mid
        else:
            high = mid
    return low
