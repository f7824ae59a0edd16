"""Every imported name is read somewhere in the file that imports it, and
every public name of the package is read by the program, a demo or the
benchmark."""

import ast
from pathlib import Path

import sobtrace

ROOT = Path(__file__).resolve().parents[1]


def _files():
    for sub in ("src/sobtrace", "tests", "demos"):
        for path in sorted((ROOT / sub).glob("*.py")):
            # the package's __init__ imports names to re-export them
            if path.name != "__init__.py":
                yield path


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    unused = {}
    for path in _files():
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


# the public names, listed once in their modules' __all__
PUBLIC = {
    "ACReport", "AC_CONSISTENT", "AC_VIOLATED_AT_INFINITY", "AC_VIOLATED_AT_ZERO",
    "BallPortionReport", "DiagnosticReport", "DistributionModel", "Domain",
    "GridDomain", "GridFunction", "GridSet", "OneDTraceReport", "ProbeRow",
    "ProfilePoint", "RectangleProfile", "SampledFunction", "SobolevNorm",
    "StepRearrangement", "WeakNormEstimate", "__version__", "ac_diagnostic",
    "approximation_scheme", "ball_portion_ratio", "ball_portion_scan", "ball_volume",
    "boundary_distance", "constant_function", "crocodile", "distance_function",
    "distribution", "embedding_constant", "gallery", "gradient_magnitude",
    "grid_perimeter", "hardy_pointwise_check", "lorentz_quasinorm",
    "lorentz_quasinorm_distribution", "maximal_operator", "model_weak_norm",
    "oned_zero_trace", "profile_search", "punctured_ball", "rasterize", "ratio_field",
    "rearrange", "rectangle", "rectangle_profile", "render_svg", "rooms_and_passages",
    "rooms_passages_witness", "sample_function", "sierpinski_counterexample",
    "sierpinski_divergence_certificate", "sierpinski_model",
    "sierpinski_partial_integrals", "sierpinski_threshold", "skyscraper_profile_bound",
    "skyscrapers", "sobolev_norm", "squares_stack", "superadditivity_check",
    "unit_cube", "weak_norm_estimate", "weak_norm_tail", "weak_tail_extrapolate",
}


def test_public_names():
    assert len(sobtrace.__all__) == len(set(sobtrace.__all__))
    assert set(sobtrace.__all__) == PUBLIC


def _read_names(paths) -> set[str]:
    """The names that a Name or an Attribute node loads in the files."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    # a caller is the package itself (outside __init__), a demo or the
    # benchmark; the tests do not count
    paths = [path for sub in ("src/sobtrace", "demos", "perfbench")
             for path in sorted((ROOT / sub).glob("*.py")) if path.name != "__init__.py"]
    read = _read_names(paths)
    unread = [name for name in sobtrace.__all__
              if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert unread == []
