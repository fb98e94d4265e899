"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import inclab

SOURCE = Path(inclab.__file__).parent


def test_library_has_no_assert_statements():
    # runtime checks must raise named errors: ``assert`` vanishes under -O
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def _referenced_names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _reach(module: str, start: str) -> tuple[set[str], set[str]]:
    """The module-level functions of ``module``, and the non-dunder methods
    of its classes (such as cached properties), that ``start`` reaches,
    directly or through each other, and every name those reference.  A
    method name that several classes define reaches each of them."""
    tree = ast.parse((SOURCE / module).read_text())
    functions: dict[str, list[ast.FunctionDef]] = {}
    for n in tree.body:
        if isinstance(n, ast.FunctionDef):
            functions.setdefault(n.name, []).append(n)
        elif isinstance(n, ast.ClassDef):
            for m in n.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"):
                    functions.setdefault(m.name, []).append(m)
    seen, todo, names = set(), [start], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        found = set().union(*map(_referenced_names, functions[name]))
        names |= found
        todo += [n for n in found if n in functions]
    return seen, names


def _library_functions() -> set[str]:
    """The module-level functions of every library module."""
    return {n.name for path in SOURCE.glob("*.py") for n in ast.parse(path.read_text()).body
            if isinstance(n, ast.FunctionDef)}


def test_naive_count_shares_no_code_with_the_hashed_path():
    # the reference count checks the grouped path, so it may not reach any
    # of its grouping helpers, directly or through a module-level helper;
    # the library functions both name are the one dtype chooser and the
    # row 1-norms each states its bound with, which pick float64, int64 or
    # Python ints and so cannot change a count.  Every instance holds its
    # flats as one FlatFamily, and both paths read its stored rows
    # (``FlatFamily._stacks``), so naive == hashed does not check the
    # storage: the conversion's own tests compare it with the flats
    # ``Flat(...)`` builds one by one
    naive, names = _reach("incidence.py", "_count_naive")
    forbidden = {
        "_count_hashed", "_exact_dots", "_value_counts", "unique",
        "_group_flats", "_complement", "_grouping",
        "_family_members", "_Runs", "_sorted_runs", "_offset_counts", "_key_weights",
        "key_bounds", "searchsorted", "reduceat", "_frame", "_hashed_points",
        "_hull_frame", "_hull_points", "_hull_traces", "affine_hull", "_row_keys",
        "_dot_tally", "_run_order", "bincount", "lexsort",
    }
    assert not names & forbidden, f"_count_naive reaches {sorted(names & forbidden)}"
    hashed, hashed_names = _reach("incidence.py", "_count_hashed")
    # the rule follows the cached properties
    assert {"_family_members", "_hull_frame", "_hull_traces"} <= hashed
    assert not naive & hashed, f"both reach {sorted(naive & hashed)}"
    shared = names & hashed_names & _library_functions()
    assert shared == {"_exact_dtype", "_norms"}, f"both name {sorted(shared)}"


def test_one_dtype_chooser():
    # every integer dtype is picked by linalg._exact_dtype from a proved
    # bound: no other function compares with its limits, and the rules it
    # replaced are named nowhere (spelled in two parts, as below)
    limits = {"_INT64_SAFE", "_FLOAT_EXACT"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _referenced_names(node) & limits:
                found.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & limits:
                found.append(f"{path.name}:import")
    assert found == ["linalg.py:_exact_dtype"], f"the limits are read in {found}"
    retired = ["_fits" + "_int64", "_dense" + "_dtype", "_product" + "_dtype"]
    found = [(path.name, name) for path in sorted(SOURCE.glob("*.py"))
             for name in retired if name in path.read_text()]
    assert not found, f"retired dtype rules named in {found}"


def test_one_clearer_and_one_primitive_form():
    # exact rows and points are cleared by geometry._over_lcm; the
    # per-row clearer of the elimination kernel stays inside linalg, and
    # every point split, decoded file and hull projection takes the one
    # primitive form
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if path.name != "linalg.py" and "clear_denominators" in path.read_text()]
    assert not found, f"clear_denominators named in {found}"
    for module, start in (("geometry.py", "_split_coords"), ("serialization.py", "_point_rows"),
                          ("incidence.py", "_hull_points")):
        _, names = _reach(module, start)
        assert "_primitive_rows" in names, f"{start} names no _primitive_rows"
    for module, start in (("geometry.py", "_exact_family"), ("geometry.py", "_hyperplanes"),
                          ("geometry.py", "generic_extension"), ("geometry.py", "_split_coords"),
                          ("serialization.py", "_family"), ("serialization.py", "_point_rows")):
        _, names = _reach(module, start)
        assert "_over_lcm" in names, f"{start} names no _over_lcm"


def test_one_flat_family():
    # hyperplanes are one-row blocks of FlatFamily: the retired container
    # of their own is named nowhere (spelled in two parts, so that a search
    # of the tree for it finds nothing either)
    retired = "Hyperplane" + "Family"
    found = [path.name for path in sorted(SOURCE.glob("*.py")) if retired in path.read_text()]
    assert not found, f"{retired} named in {found}"


def test_one_flat_store():
    # any flat sequence becomes one FlatFamily, once, where an instance or
    # an embedding takes it: the counting, grouping, writing, loading and
    # embedding layers keep no second branch for other sequences, and the
    # per-flat hyperplane key is named nowhere (spelled in two parts, as
    # above)
    branches = {}
    for name in ("incidence.py", "serialization.py", "constructions.py"):
        tree = ast.parse((SOURCE / name).read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                 and "FlatFamily" in _referenced_names(node.args[1])]
        if found:
            branches[name] = found
    assert not branches, f"isinstance(..., FlatFamily) at {branches}"
    retired = "_hyperplane" + "_key"
    found = [path.name for path in sorted(SOURCE.glob("*.py")) if retired in path.read_text()]
    assert not found, f"{retired} named in {found}"


def test_runs_are_arrays():
    # the hyperplanes are classified as run arrays: the nested per-run dict
    # type is named nowhere (spelled in two parts, as above)
    retired = "_Flat" + "Groups"
    found = [path.name for path in sorted(SOURCE.glob("*.py")) if retired in path.read_text()]
    assert not found, f"{retired} named in {found}"


def test_padding_replays_its_draws():
    # the padding offsets are randint draws replayed from words of the one
    # Random, one word a draw; no randint call and no multi-word draw is
    # left on that path
    reached, names = _reach("constructions.py", "_pad_hyperplanes")
    assert {"_words", "_pad_draws"} <= reached  # the rule follows the helpers
    found = (reached | names) & {"randint", "_randbelow"}
    assert not found, f"_pad_hyperplanes reaches {sorted(found)}"


def test_offsets_and_run_counts_read_one_tally():
    # the construction's offset sets and the hashed path's run counts are
    # read off one tally of the exact dot values
    _, names = _reach("constructions.py", "_achieved_offsets")
    assert "_dot_tally" in names, "_achieved_offsets names no _dot_tally"
    reached, _ = _reach("incidence.py", "_offset_counts")
    assert "_dot_tally" in reached, "_offset_counts reaches no _dot_tally"


def test_extension_draws_are_replayed():
    # the generic extensions' directions are randint draws replayed from
    # words of one getrandbits; no randint call is left on that path
    reached, names = _reach("geometry.py", "_extension_rows")
    assert "_randints" in reached and "getrandbits" in names  # the rule follows the helper
    assert "randint" not in names, "_extension_rows reaches randint"


def test_point_paths_compare_integers_only():
    # every point is one homogeneous integer row (P, q), so the split,
    # membership, both dense counts, a flat family's member lists and the
    # multiplicity need no Fraction and no point-by-point substitution
    found = {}
    for module, start in (("geometry.py", "_split_coords"), ("incidence.py", "_exact_dots"),
                          ("incidence.py", "_count_naive"), ("incidence.py", "_count_dense"),
                          ("incidence.py", "_family_members"),
                          ("incidence.py", "_max_point_multiplicity")):
        reached, names = _reach(module, start)
        hit = (reached | names) & {"Fraction", "contains"}
        if hit:
            found[start] = sorted(hit)
    assert not found, f"integer point paths reach {found}"


def test_hull_reduction_and_array_decode_build_no_fraction_or_flat():
    # the affine hull, the points projected into it, the flats' traces on
    # it, the loader's array decode and the text reader stay in integer
    # arrays: no Fraction and no Flat per point, flat or pair
    found = {}
    for module, start in (("linalg.py", "affine_hull"), ("incidence.py", "_hull_points"),
                          ("incidence.py", "_hull_traces"), ("serialization.py", "_family"),
                          ("serialization.py", "_point_rows"),
                          ("serialization.py", "_read_written")):
        reached, names = _reach(module, start)
        hit = (reached | names) & {"Fraction", "Flat", "_dec", "_pair"}
        if hit:
            found[start] = sorted(hit)
    assert not found, f"reached {found}"
    _, names = _reach("serialization.py", "_family")
    assert {"_int_leaves", "_over_lcm", "_row_family"} <= names
    _, names = _reach("serialization.py", "_point_rows")
    assert {"_int_leaves", "_over_lcm"} <= names


def test_the_text_reader_takes_its_layout_from_the_writer():
    # the reader's expected items are the writer's templates, repeated: it
    # reaches them, and no string of its own spells an item's layout again
    writer = {"_array", "_rational_items", "_flat_template"}
    reached, names = _reach("serialization.py", "_read_written")
    assert writer <= reached and "_ITEM_SEP" in names
    tree = ast.parse((SOURCE / "serialization.py").read_text())
    own = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in reached - writer]
    strings = [c.value for f in own for statement in f.body[bool(ast.get_docstring(f)):]
               for c in ast.walk(statement)
               if isinstance(c, ast.Constant) and isinstance(c.value, (str, bytes))]
    spelled = [s for s in strings
               if any(piece in (s if isinstance(s, str) else s.decode()) for piece in (",", '"A"', '"b"'))]
    assert not spelled, f"the reader spells {spelled}"


def test_kst_certificate_builds_no_masks():
    # the normal-group certificate is an independent path to "free": it may
    # not reach the masks or the subset search that it stands in for
    reached, names = _reach("incidence.py", "_certificate_gap")
    assert "_offset_counts" in reached  # the rule follows the cached properties
    forbidden = {"_grouped_masks", "_first_common_subset", "_search_kst"}
    found = (reached | names) & forbidden
    assert not found, f"_certificate_gap reaches {sorted(found)}"


def test_only_incidence_calls_the_kst_search():
    # incidence.kst_verdict alone turns a find_kst result or its ResourceLimit
    # into "witness", "free" or "unverified"; any other caller would spell
    # the verdict again (the package __init__ only re-exports the name)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name in ("incidence.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                    for a in n.names}
        if "find_kst" in _referenced_names(tree) | imported:
            found.append(path.name)
    assert not found, f"find_kst named in {found}"


def test_instance_writer_shares_no_code_with_the_reference_path():
    # the writer's text is checked against canonical_json(instance_to_dict(...)),
    # so neither path may reach the other's helpers
    writer, writer_names = _reach("serialization.py", "save_instance")
    reference = {"instance_to_dict", "canonical_json", "_enc"}
    found = writer_names & reference
    assert not found, f"save_instance reaches {sorted(found)}"
    _, names = _reach("serialization.py", "instance_to_dict")
    shared = names & (writer - {"save_instance"})
    assert not shared, f"instance_to_dict reaches {sorted(shared)}"


def test_flat_construction_runs_no_fraction_elimination():
    # Flat.__init__ takes rank and consistency from the integer kernel's
    # pivots; it reads no solution off them
    tree = ast.parse((SOURCE / "geometry.py").read_text())
    flat = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Flat")
    init = next(n for n in flat.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    found = _referenced_names(init) & {"solve_rref", "_solved", "solution", "Fraction"}
    assert not found, f"Flat.__init__ references {sorted(found)}"


def _setattr_calls(node) -> list[ast.Call]:
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute) and c.func.attr == "__setattr__"]


def test_a_flat_holds_only_its_system():
    # a flat is its four fields and nothing else: no kept echelon form or
    # integer rows ride along, since the sweep pays for every container
    # kept per flat; so every object.__setattr__ in the package sets an
    # attribute of its own object, and on a Flat one of its fields
    elsewhere = [
        f"{path.name}:{call.lineno}" for path in sorted(SOURCE.glob("*.py"))
        for call in _setattr_calls(ast.parse(path.read_text()))
        if not (isinstance(call.args[0], ast.Name) and call.args[0].id == "self")
    ]
    assert not elsewhere, f"attributes set on another object at {elsewhere}"
    tree = ast.parse((SOURCE / "geometry.py").read_text())
    flat = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Flat")
    fields = {n.target.id for n in flat.body if isinstance(n, ast.AnnAssign)}
    assert fields == {"ambient_dim", "equations", "rhs", "dim"}
    names = {getattr(call.args[1], "value", None) for call in _setattr_calls(flat)}
    assert names == fields, f"Flat sets {sorted(names, key=str)}"


def test_set_equality_is_one_containment_check():
    # flats_equal compares dimensions and runs the containment check that
    # generic_extension runs; no stacked rank, Fraction solution or
    # point-by-point substitution
    reached, names = _reach("geometry.py", "flats_equal")
    assert "_holds" in reached
    found = (reached | names) & {"rank", "solution", "contains"}
    assert not found, f"flats_equal reaches {sorted(found)}"


def test_exact_kernel_builds_no_fraction():
    # elimination, the one solution reader and the batched minors stay in
    # integers; callers build a Fraction only where a public value needs one
    for start in ("integer_rref", "solve_rref", "maximal_minors", "full_row_rank", "nullspaces"):
        _, names = _reach("linalg.py", start)
        assert "Fraction" not in names, f"{start} reaches Fraction"


def test_generic_extension_reads_no_fraction_solution():
    # the extension reads h as integers off its echelon form; a call of
    # h.solution() would bring back the Fraction point and directions
    reached, names = _reach("geometry.py", "generic_extension")
    assert "solve_rref" in names  # the rule follows the helpers
    assert "solution" not in reached | names


def test_embedding_eliminates_no_embedded_hyperplane():
    # the embedding reads every hyperplane, checks every draw and takes
    # every nullspace through the batched minors kernel, and the loader
    # hands every block to the one row converter, which checks them
    # through it too: no elimination per flat of full rank.  The draws are
    # the one extension routine's, which generic_extension runs too
    elimination = {"integer_rref", "solve_rref", "rank", "_solved"}
    found = {}
    for module, start, wanted in (
            ("constructions.py", "embed_configuration", {"nullspaces", "_extension_rows"}),
            ("geometry.py", "_extension_rows", {"nullspaces", "full_row_rank"}),
            ("serialization.py", "_family", {"_row_family"})):
        reached, names = _reach(module, start)
        assert wanted <= names, f"{start} names {sorted(wanted - names)} nowhere"
        hit = (reached | names) & (elimination | {"generic_extension"})
        if hit:
            found[start] = sorted(hit)
    assert not found, f"per-flat elimination in {found}"
    _, names = _reach("geometry.py", "generic_extension")
    assert "_extension_rows" in names
    _, names = _reach("geometry.py", "_row_family")
    assert "full_row_rank" in names


def test_integer_construction_paths_build_no_fraction():
    # grid points, hyperplanes and the embedding are integer objects, and
    # Flat and RatPoint keep integral values as int, so these bodies need
    # no Fraction (an annotation may still name one: make_hyperplane
    # accepts a rational offset)
    wanted = {
        "geometry.py": {"make_hyperplane"},
        "constructions.py": {"lattice_points", "_core_hyperplanes", "_pad_hyperplanes",
                             "embedding_carrier", "embed_configuration"},
    }
    seen, found = set(), []
    for module, names in wanted.items():
        tree = ast.parse((SOURCE / module).read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                seen.add(node.name)
                if any("Fraction" in _referenced_names(stmt) for stmt in node.body):
                    found.append(node.name)
    assert seen == set().union(*wanted.values())
    assert not found, f"Fraction in {sorted(found)}"


def test_constructions_fill_hyperplane_columns():
    # the core and padding hyperplanes are written into a family's rows;
    # a flat is built only when one is read
    tree = ast.parse((SOURCE / "constructions.py").read_text())
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name in ("_core_hyperplanes", "_pad_hyperplanes")}
    assert len(bodies) == 2
    found = {name: sorted(_referenced_names(node) & {"make_hyperplane", "Flat"})
             for name, node in bodies.items()}
    assert not any(found.values()), f"core and padding hyperplanes name {found}"


def test_constructions_fill_point_rows():
    # grid points, sphere buckets and embedded points are box or shifted
    # rows; a RatPoint is built only when one is read (an annotation may
    # still name one: lattice_points returns a sequence of them)
    tree = ast.parse((SOURCE / "constructions.py").read_text())
    wanted = ("lattice_points", "_sphere_grid_bucket", "embed_configuration")
    bodies = {n.name: n.body for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name in wanted}
    assert len(bodies) == len(wanted)
    found = [name for name, body in bodies.items()
             if any("RatPoint" in _referenced_names(stmt) for stmt in body)]
    assert not found, f"RatPoint named in {sorted(found)}"


def test_one_walk_over_spanning_subsets():
    # selection measures its coverage in the acceptance walk itself, so it
    # runs no second search; the one walk takes every span's nullspace
    # from the batched minors kernel, with no elimination per subset, and
    # no library function names the retired one-matrix nullspace
    _, names = _reach("constructions.py", "select_admissible_normals")
    found = names & {"measure_max_coverage", "_max_subspace_weight"}
    assert not found, f"select_admissible_normals reaches {sorted(found)}"
    _, names = _reach("incidence.py", "_heaviest_span")
    assert "nullspaces" in names, "_heaviest_span names no nullspaces"
    kernel = {n.name for n in ast.parse((SOURCE / "linalg.py").read_text()).body
              if isinstance(n, ast.FunctionDef)}
    for start in names & kernel:  # the linalg functions it calls, and theirs
        names |= _reach("linalg.py", start)[1]
    found = names & {"integer_rref", "solve_rref"}
    assert not found, f"_heaviest_span reaches {sorted(found)}"
    found = [f"{path.name}:{node.name}" for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and "nullspace" in _referenced_names(node)]
    assert not found, f"nullspace named in {found}"


def test_few_callers_of_the_elimination_kernel():
    # integer_rref, the Python Gauss-Jordan, serves a flat's own system,
    # the rank-deficient blocks of the row converter, the affine hull's
    # equations and the exponent system; every other nullspace or rank
    # comes from the batched minors kernel
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner, body in [("", tree.body)] + [(f"{n.name}.", n.body) for n in tree.body
                                                if isinstance(n, ast.ClassDef)]:
            found |= {owner + n.name for n in body if isinstance(n, ast.FunctionDef)
                      and "integer_rref" in _referenced_names(n)}
    assert found == {"Flat.__init__", "Flat._solved", "_row_family", "affine_hull",
                     "term_from_system"}, f"integer_rref named in {sorted(found)}"
