"""Module boundaries of the package, read from its source by an AST scan."""

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "prodgeo"


def _modules_naming(name: str) -> set[str]:
    """Modules of the package whose code names ``name``, as a variable,
    attribute or imported name."""
    found = set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)
                    or (isinstance(node, ast.FunctionDef) and node.name == name)):
                found.add(path.name)
    return found


@pytest.mark.parametrize("name, owners", [
    # the membership rule and the fibre norm live in core alone
    ("_scaled_norm", {"core.py"}),
    # no module squares the fibre form: the package takes sqrt(Q) from
    # core._fibre_norm, and the paper's closed forms are test oracles
    ("fibre_norm_sq", set()),
    # a point is read into a float triple at the boundary; the array form is
    # for callers, and no module below the boundary builds it
    ("model_point", {"core.py", "__init__.py"}),
])
def test_name_used_only_by(name, owners):
    assert _modules_naming(name) == owners


def _tree(module: str) -> ast.AST:
    path = SOURCES / module
    return ast.parse(path.read_text(), filename=str(path))


def _defining(name: str) -> set[str]:
    """Modules of the package that define a function ``name``."""
    return {path.name for path in SOURCES.glob("*.py")
            for node in ast.walk(_tree(path.name))
            if isinstance(node, ast.FunctionDef) and node.name == name}


@pytest.mark.parametrize("name", ["_to_origin", "apply_isometry"])
def test_only_the_paper_method_and_its_suite_move_points(name):
    """One normaliser: the paper's matrices, used by ``isometries`` and by
    the isometry-invariance suite (the package namespace re-exports the
    public ``apply_isometry``)."""
    assert "isometries.py" in _modules_naming(name)
    assert _modules_naming(name) - {"__init__.py"} <= {"isometries.py", "verification.py"}


def _builds_identity_4(node: ast.AST) -> bool:
    """Whether ``node`` is a call ``np.eye(4)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eye" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 4)


def test_only_isometries_builds_4x4_matrices():
    """The paper's matrices are built in ``isometries`` alone, by ``_embed`` of a
    3x3 block into ``np.eye(4)``; ``reference`` holds frozen data only."""
    assert _modules_naming("_embed") == {"isometries.py"}
    assert {path.name for path in SOURCES.glob("*.py")
            if any(map(_builds_identity_4, ast.walk(_tree(path.name))))} == {"isometries.py"}


def _callers(module: str, name: str) -> set[str]:
    """The functions of ``module`` whose body calls ``name``."""
    return {function.name for function in ast.walk(_tree(module))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == name}


def test_only_the_public_builders_embed_a_block():
    """A 4x4 matrix is built at the boundary, by the four public builders; the
    normaliser is its 3x3 block (``_to_origin``) inside the package."""
    assert _callers("isometries.py", "_embed") == {"fibre_translation", "rotation_x",
                                                   "rotation_z", "to_origin"}


def test_the_paper_frame_moves_float_triples():
    """The frame moves its points by ``_move`` on the normaliser's block, in
    ``math``: no public ``apply_isometry``, which reads its matrix and point
    again, and no numpy in the frame, its angle or the move."""
    for name in ("_paper_vertices", "_vertex_tangents", "_between", "vertex_angle", "_move"):
        assert not _body_names("isometries.py", name) & {"apply_isometry", "np"}, name
    assert _callers("isometries.py", "_move") == {"_to_origin", "_paper_vertices",
                                                  "_vertex_tangents"}


@pytest.mark.parametrize("name", ["reference_image_base", "reference_image_third",
                                  "reference_images_plane_mover", "transcribed_normalizer_s2r",
                                  "_require_in_range"])
def test_the_paper_forms_are_test_oracles(name):
    """The paper's hand-derived closed forms and their guard are
    ``tests/paper_forms.py``'s: no module of the package names them."""
    assert _modules_naming(name) == set()


@pytest.mark.parametrize("name", ["tangent_endpoints", "vertex_angle"])
def test_paper_frame_defined_only_in_isometries(name):
    assert _defining(name) == {"isometries.py"}


def test_triangles_import_nothing_from_isometries():
    """Triangles measure the caller's vertices and move none of them."""
    for node in ast.walk(_tree("triangles.py")):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "isometries" not in ast.unparse(node)
    assert _modules_naming("_normalise") == set()


def test_triangles_solve_no_linear_system():
    """Coplanarity with the centre and enclosure of it are sign tests in
    floats: ``triangles`` names nothing of ``numpy.linalg``."""
    assert "triangles.py" not in _modules_naming("linalg")
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node)
                   for node in ast.walk(_tree("triangles.py")))


def _signed_constant(node: ast.AST):
    """The value of a numeric literal, negated ones included; else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _signed_constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) else None


def test_every_sign_of_the_geometry_is_its_curvature():
    """The +-1 that tells S2xR from H2xR is ``Geometry.curvature``: no
    module defines ``_sigma`` or chooses between 1 and -1 by a condition."""
    assert _defining("_sigma") == set()
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.IfExp):
                branches = {_signed_constant(node.body), _signed_constant(node.orelse)}
                assert branches != {1, -1}, f"{path.name}:{node.lineno}"


def test_one_angle_formula():
    """One surface arc, in ``geodesics`` beside ``distance`` and the inverse
    problem, and one angle formula, in ``triangles``, which triangles and
    sweeps share: no module keeps the numpy tangent kernel or a fixed and
    moving part of it split off for sweeps."""
    for name in ("_arc", "_tangent_len", "_tangent_sq"):
        assert _defining(name) == {"geodesics.py"}, name
    for name in ("_half_angle", "_angle"):
        assert _defining(name) == {"triangles.py"}, name
    for name in ("_angle_sums", "_side_tangents", "_tangent_angle", "_surface_arc",
                 "_fixed_side", "_third_vertex"):
        assert _defining(name) == set(), name


def _body_names(module: str, function: str) -> set[str]:
    """Every variable and attribute name in the body of ``function``."""
    node = next(node for node in ast.walk(_tree(module))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_a_triangle_validates_itself():
    """``geodesic_triangle`` is the ``GeodesicTriangle`` constructor, which
    checks membership and distinctness: the function checks nothing."""
    assert not _body_names("triangles.py", "geodesic_triangle") & {"require_member",
                                                                   "_require_distinct"}
    assert {"require_member", "_require_distinct"} <= _body_names("triangles.py", "__init__")


def test_a_sweep_spec_validates_itself():
    """A ``SweepSpec`` builds its ray part as it is constructed, on the
    splits that check a2 and the ray: no membership check beside the split,
    and no ray part built on first use."""
    assert {"_split", "_require_distinct", "_closed_form"} <= _body_names("sweep.py", "__init__")
    for name in ("require_member", "cached_property", "_ray_split"):
        assert "sweep.py" not in _modules_naming(name), name


def test_one_closed_form_evaluation():
    """Triangles and sweeps evaluate the closed form by ``triangles._angles_at``,
    for a float u or an array of u, and Brent's dS/du by ``_slope_at``: the
    only code that unpacks its tuple.  ``sweep`` keeps no copy of either, no
    numpy twin of the angles is left, and the angles form no derivative."""
    for name in ("_angles_at", "_slope_at"):
        assert _defining(name) == {"triangles.py"}, name
    for name in ("_sum_and_slope", "_sums_along", "_angles"):
        assert not _defining(name) & {"sweep.py"}, name
    assert _defining("_sums_at") == set()
    assert "_angles_at" in _body_names("triangles.py", "_angles")
    assert not _body_names("triangles.py", "_angles_at") & {"_partial", "_slope_at", "slope"}
    unpacking = {(path.name, function.name) for path in SOURCES.glob("*.py")
                 for function in ast.walk(_tree(path.name))
                 if isinstance(function, ast.FunctionDef)
                 for node in ast.walk(function)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                 and len(node.targets[0].elts) == 9}
    assert unpacking == {("triangles.py", "_angles_at"), ("triangles.py", "_slope_at")}


def test_one_third_vertex_check():
    """``angle_sum_at`` and ``evaluate`` check t * ray by one helper, in
    floats, the only sweep code that guards it: its range by core's
    ``_guard_in_range``, with no membership guard and no numpy."""
    callers = {function.name for function in ast.walk(_tree("sweep.py"))
               if isinstance(function, ast.FunctionDef)
               and "_guard_in_range" in _body_names("sweep.py", function.name)}
    assert callers == {"_check_third_vertices"}
    assert not _body_names("sweep.py", "_check_third_vertices") & {"np", "_guard_member"}
    assert "sweep.py" not in _modules_naming("_guard_member")
    for name in ("angle_sum_at", "evaluate"):
        assert "_check_third_vertices" in _body_names("sweep.py", name)


def test_one_distinctness_rule():
    """Vertices are told apart by one rule, in floats: ``_require_distinct``
    names no numpy, and no module keeps its batch branch's ``_max_abs``."""
    assert "np" not in _body_names("triangles.py", "_require_distinct")
    assert _defining("_max_abs") == set()


@pytest.mark.parametrize("module, name", [
    ("core.py", "_split"), ("geodesics.py", "_arc"), ("triangles.py", "_half_angle"),
    ("triangles.py", "_closed_form"), ("triangles.py", "__init__"), ("triangles.py", "_angles"),
    ("triangles.py", "_require_distinct"), ("triangles.py", "_coplanar"),
    ("triangles.py", "encloses_center"), ("triangles.py", "_encloses"),
    ("sweep.py", "_near_a1_a2"),
])
def test_the_triangle_kernel_runs_on_float_components(module, name):
    """The per-triangle float kernels spell out their three components: under
    Python 3.11 each comprehension, generator expression and lambda runs as a
    frame of its own (PEP 709 inlines list comprehensions from 3.12 only), so
    none of them, and no ``zip``, ``map`` or ``enumerate``, runs per triangle."""
    function = next(node for node in ast.walk(_tree(module))
                    if isinstance(node, ast.FunctionDef) and node.name == name)
    frames = [ast.unparse(node) for node in ast.walk(function)
              if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                                   ast.Lambda))
              or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in {"zip", "map", "enumerate"})]
    assert frames == []


@pytest.mark.parametrize("name", ["_split", "_fibre_norm", "_scaled_norm", "_guard_member"])
def test_the_split_takes_one_point(name):
    """The product split and the membership rule take one point as a float
    triple, in floats (the rule an (N, 3) batch too): no (3,)-array branch,
    which would test ``ndim`` and read the point again by ``tolist``."""
    assert not _body_names("core.py", name) & {"ndim", "tolist"}


def test_the_inverse_problem_is_the_split_and_the_surface_arc():
    """``_geodesic_params`` takes the fibre height from ``_split`` and the
    surface arc from ``_arc``, as ``distance`` does: no norm or arc formula
    of its own."""
    names = _body_names("geodesics.py", "_geodesic_params")
    assert {"_split", "_arc"} <= names
    assert not names & {"_fibre_norm", "asinh"}


def test_sweeps_refine_without_a_zoom():
    """The extremum is the root of the closed-form dS/du: ``sweep`` keeps
    no bracket zoom, its constants or a linear sample of a bracket."""
    for name in ("_zoom", "_ZOOM_POINTS", "_ZOOM_WIDTH", "linspace"):
        assert "sweep.py" not in _modules_naming(name), name
    assert "np.linspace" not in (SOURCES / "sweep.py").read_text()


def test_sweep_grid_runs_no_kernel_batch():
    """``evaluate`` samples S(t) from the family's closed form: its body
    names neither the kernel's moving part nor a batch of it."""
    evaluate = next(node for node in ast.walk(_tree("sweep.py"))
                    if isinstance(node, ast.FunctionDef) and node.name == "evaluate")
    names = {node.id for node in ast.walk(evaluate) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(evaluate) if isinstance(node, ast.Attribute)}
    assert not names & {"_sums", "_third_vertex"}


def _squares_of_names(node: ast.AST) -> int:
    """How many terms of a chain of + and - are ``a * a`` for one name a."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _squares_of_names(node.left) + _squares_of_names(node.right)
    return int(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
               and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name)
               and node.left.id == node.right.id)


def test_metric_entries_defined_only_in_core():
    """One metric formula: ``core._metric_entries``, which ``_metric`` and
    the oracle's acceleration both call."""
    assert _defining("_metric_entries") == {"core.py"}
    assert "oracle.py" in _modules_naming("_metric_entries")


def test_oracle_writes_no_metric_and_solves_without_numpy_linalg():
    """Both metrics' entries are built on |p|^2 or Q = x^2 - y^2 - z^2, sums
    of three squares that only ``core`` writes; the acceleration solves its
    3x3 system by its own Cholesky factorisation."""
    tree = _tree("oracle.py")
    assert not any(_squares_of_names(node) >= 3 for node in ast.walk(tree))
    assert _squares_of_names(ast.parse("x * x - y * y - z * z").body[0].value) == 3
    assert not any(isinstance(node, ast.Attribute) and node.attr == "linalg"
                   for node in ast.walk(tree))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   and "linalg" in ast.unparse(node) for node in ast.walk(tree))


def _imported(node: ast.AST) -> set[str]:
    """The top-level packages an absolute import statement ``node`` names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_no_module_imports_dataclasses_or_inspect():
    """The records are plain classes on ``core._Record`` and a named tuple:
    ``dataclasses``, with the ``inspect`` it imports, would be about a third
    of the package's import time."""
    for path in SOURCES.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            assert not _imported(node) & {"dataclasses", "inspect"}, path.name


def _imports_numpy(node: ast.AST) -> bool:
    """Whether ``node`` is an ``import numpy...`` or ``from numpy... import``."""
    return "numpy" in _imported(node)


def _run_at_import(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a module-level statement that run on import: all of it,
    but of a function its decorators and defaults, of a class its
    decorators, bases and these parts of its body, and of an annotated
    name its value (annotations are strings in every module that names np)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [*stmt.decorator_list, *stmt.args.defaults, *filter(None, stmt.args.kw_defaults)]
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
                *(part for inner in stmt.body for part in _run_at_import(inner))]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value else []
    return [stmt]


def test_numpy_loads_on_first_use():
    """``core.np`` is the one numpy handle, which imports numpy on its first
    attribute access; an ``import numpy`` elsewhere (which reads the
    module's ``__spec__`` on 3.11) or a module-level ``np.`` would load it
    on import.  ``_dop853`` builds its tables at import: only ``oracle``
    imports it, and every run of ``oracle`` uses numpy."""
    assert _modules_naming("_dop853") == {"oracle.py"}
    sources = {path.name: _tree(path.name) for path in SOURCES.glob("*.py")
               if path.name != "_dop853.py"}
    assert {name for name, tree in sources.items()
            if any(map(_imports_numpy, ast.walk(tree)))} <= {"core.py"}
    for name, tree in sources.items():
        if "np" in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}:
            assert "from __future__ import annotations" in ast.unparse(tree), name
        reads = [ast.unparse(node) for stmt in tree.body for part in _run_at_import(stmt)
                 for node in ast.walk(part) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "np"]
        assert reads == [], name


def test_one_interpolation_pass_per_solve():
    """``_dop853.solve`` evaluates the dense output once, after its stage loop:
    inside the loop a step that holds samples only builds its Horner rows
    (``_horner_rows``), and ``_interpolate`` evaluates every sample at the end.
    No per-step interpolant (``_dense``) is kept beside it."""
    solve = next(node for node in ast.walk(_tree("_dop853.py"))
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    in_loop = {node.func.id for loop in ast.walk(solve) if isinstance(loop, (ast.For, ast.While))
               for node in ast.walk(loop)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_horner_rows" in in_loop and "_interpolate" not in in_loop
    assert "_interpolate" in _body_names("_dop853.py", "solve")
    assert _defining("_dense") == set()


def test_one_dot_per_stage():
    """Each DOP853 stage is one ``dot`` of its folded row (1, h A[s, :s]) with
    (y, K[:s]): the stage loop (``_stages``, which ``solve`` and ``_horner_rows``
    call) makes one ``.dot`` call, ``solve`` one more for y_new, and no stage
    function forms an update y + h * (...)."""
    functions = {node.name: node for node in ast.walk(_tree("_dop853.py"))
                 if isinstance(node, ast.FunctionDef)}

    def dots(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == "dot"]

    (loop,) = [n for n in ast.walk(functions["_stages"]) if isinstance(n, ast.For)]
    assert len(dots(loop)) == len(dots(functions["_stages"])) == 1
    assert len(dots(functions["solve"])) == 1
    for name in ("solve", "_horner_rows"):
        assert "_stages" in _body_names("_dop853.py", name), name
    for name in ("solve", "_stages", "_horner_rows"):
        updates = [ast.unparse(n) for n in ast.walk(functions[name])
                   if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
                   and isinstance(n.right, ast.BinOp) and isinstance(n.right.op, ast.Mult)
                   and ast.unparse(n.right.left) == "h"]
        assert updates == [], name


@pytest.mark.parametrize("name", ["_rhs_s2r", "_rhs_h2r", "rhs"])
def test_every_right_hand_side_computes_in_floats(name):
    """Each right-hand side of ``oracle`` reads its state array by ``tolist``:
    its math runs on Python floats, not on numpy scalars."""
    assert "tolist" in _body_names("oracle.py", name)


@pytest.mark.parametrize("name", ["_real", "_count"])
def test_one_number_reader(name):
    """A number or count argument is read by ``core._real`` or ``core._count``."""
    assert _defining(name) == {"core.py"}


def test_one_array_reader():
    """Caller arrays are read by ``core._reals`` alone: no ``_real_array`` is kept beside
    it, and only ``core`` (the reader and its chart guard) and ``_dop853`` (its own
    float grid) name ``asarray``."""
    assert _modules_naming("_real_array") == set()
    assert _defining("_reals") == {"core.py"}
    assert _modules_naming("asarray") == {"core.py", "_dop853.py"}


def test_one_guard_for_the_memory_a_count_sizes():
    """``integrate_geodesic``, ``sample_curve`` and ``evaluate`` run all the work their
    count sizes inside ``core._memory_for``; no allocation wrapper is kept beside it."""
    assert _defining("_allocate") == set()
    for module, function in (("oracle.py", "integrate_geodesic"), ("geodesics.py", "sample_curve"),
                             ("sweep.py", "evaluate")):
        assert "_memory_for" in _body_names(module, function), function


@pytest.mark.parametrize("module", ["sweep.py", "geodesics.py", "oracle.py"])
def test_no_scalar_reader_of_their_own(module):
    """``numbers.Real`` and ``operator.index`` were the ad-hoc scalar readers."""
    assert not {node.id for node in ast.walk(_tree(module))
                if isinstance(node, ast.Name)} & {"numbers", "operator"}
    assert not any(_imported(node) & {"numbers", "operator"} for node in ast.walk(_tree(module)))


def test_one_product_chart():
    """Closed-form points come from one chart and pass one guard, both in
    ``core``: ``geodesics._points`` and ``to_model``'s chart ``_chart_points`` call
    them, and ``geodesics`` evaluates no exponential or hyperbolic function itself."""
    for name in ("_product_points", "_guard_chart"):
        assert _defining(name) == {"core.py"}, name
        assert name in _body_names("geodesics.py", "_points"), name
        assert name in _body_names("core.py", "_chart_points"), name
    assert "_chart_points" in _body_names("core.py", "to_model")


def test_the_intrinsic_route_reads_its_states_once():
    """``integrate_geodesic`` checks its own solver output by the trusted kernels
    that ``unit_speed_drift`` and ``to_model`` share (``oracle._drift``,
    ``core._chart_points``), not by re-reading it through those two."""
    route = next(node for node in ast.walk(_tree("oracle.py"))
                 if isinstance(node, ast.FunctionDef) and node.name == "integrate_geodesic")
    calls = {ast.unparse(node.func) for node in ast.walk(route) if isinstance(node, ast.Call)}
    assert {"_drift", "_chart_points"} <= calls
    assert not calls & {"unit_speed_drift", "to_model", "_reals", "np.broadcast_arrays"}
    assert "_drift" in _body_names("oracle.py", "unit_speed_drift")
    for name in ("cosh", "sinh", "exp"):
        assert "geodesics.py" not in _modules_naming(name), name


def test_only_run_suite_builds_a_suite_result():
    """The verification suites yield their failure messages, and
    ``run_suite`` alone collects them into a ``SuiteResult``: no suite
    takes or returns one."""
    builders = {(path.name, function.name) for path in SOURCES.glob("*.py")
                for function in ast.walk(_tree(path.name))
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "SuiteResult"}
    assert builders == {("verification.py", "run_suite")}
    tree = _tree("verification.py")
    table = next(stmt.value for stmt in tree.body
                 if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "SUITES")
    names = {ast.unparse(value) for value in table.values}
    suites = [stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name in names]
    assert len(suites) == len(names) == 5
    for suite in suites:
        annotations = [arg.annotation for arg in suite.args.args] + [suite.returns]
        assert not any("SuiteResult" in ast.unparse(a) for a in annotations if a), suite.name


#: the package's layers, lowest first: a module imports only from earlier layers
LAYERS = [{"exceptions.py", "tolerances.py"}, {"core.py"}, {"reference.py", "_dop853.py"},
          {"geodesics.py"}, {"triangles.py"}, {"sweep.py", "isometries.py"}, {"oracle.py"},
          {"verification.py"}, {"cli.py"}]


def test_every_relative_import_points_down_the_layers():
    """Each module's relative imports, at module level or inside a function, name
    modules of earlier layers only: no import points up (``geodesics`` once read the
    surface arc from ``triangles``) or sideways.  Only the package ``__init__`` is out."""
    layer = {module: rank for rank, modules in enumerate(LAYERS) for module in modules}
    assert set(layer) == {path.name for path in SOURCES.glob("*.py")} - {"__init__.py"}
    for module, rank in layer.items():
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                for name in names:
                    assert layer[f"{name}.py"] < rank, (module, name)


def _cli_options() -> dict[str, list[ast.Call]]:
    """The ``add_argument`` calls of the CLI, by the option each adds."""
    options = {}
    for node in ast.walk(_tree("cli.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            options.setdefault(ast.literal_eval(node.args[0]), []).append(node)
    return options


def test_the_cli_reads_no_value_the_library_reads():
    """The CLI turns text into Python values and the library decides: display
    precision is ``--precision`` alone (no environment variable), ``--geometry``
    is read by ``Geometry.from_name`` (no ``choices``), and only ``--precision``
    keeps a rule of the CLI's own (``_int_at_least``)."""
    tree = _tree("cli.py")
    assert "THURSTON_PRECISION" not in (SOURCES / "cli.py").read_text()
    assert not any(isinstance(node, ast.Attribute) and node.attr == "environ"
                   for node in ast.walk(tree))
    assert not any(_imported(node) & {"os"} for node in ast.walk(tree))
    options = _cli_options()
    assert len(options["--geometry"]) == 2  # the geometry commands' and verify's
    assert not any(keyword.arg == "choices" for call in options["--geometry"]
                   for keyword in call.keywords)
    assert {option for option, calls in options.items() for call in calls
            if "_int_at_least" in ast.unparse(call)} == {"--precision"}
    assert _modules_naming("_int_at_least") == {"cli.py"}
