"""Unit tests for the domain gallery, rasterization, and MC ball portions."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sobtrace import domains
from sobtrace.domains import (
    PLAUSIBLY_SATISFIED,
    VIOLATED_SEQUENCE_FOUND,
    ball_portion_ratio,
    ball_portion_scan,
    ball_volume,
    boundary_distance,
    distance,
    gallery,
    rasterize,
    render_svg,
    rooms_geometry,
    rooms_tail_cut,
    unit_cube,
)


# ---------------------------------------------------------------------------
# geometry oracles


def test_ball_volumes():
    assert math.isclose(ball_volume(1), 2.0, rel_tol=1e-12)
    assert math.isclose(ball_volume(2), math.pi, rel_tol=1e-12)
    assert math.isclose(ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-12)


def test_gallery_tags():
    tags = {
        "cube1", "cube2", "cube3", "punctured_ball2", "punctured_ball3",
        "rooms_and_passages", "squares_stack", "crocodile", "skyscrapers",
    }
    for tag in tags:
        dom = gallery(tag, kmax=4)
        assert dom.dimension in (1, 2, 3)
        assert json.loads(dom.to_json())
    with pytest.raises(ValueError):
        gallery("moebius_strip")


def test_cube_distances():
    c2 = gallery("cube2")
    assert distance(c2, (0.5, 0.5)) == 0.5
    assert distance(c2, (0.25, 0.125)) == 0.125
    assert distance(gallery("cube3"), (0.5, 0.5, 0.5)) == 0.5
    assert distance(gallery("cube1"), (0.25,)) == 0.25
    with pytest.raises(ValueError):
        distance(c2, (1.5, 0.5))
    with pytest.raises(ValueError):
        distance(c2, (0.0, 0.5))  # boundary points are not inside


def test_cube_closed_forms():
    c2 = gallery("cube2")
    assert c2.measure == 1.0
    assert math.isclose(c2.distance_distribution(0.125), 0.5625, rel_tol=1e-15)
    assert c2.distance_distribution(0.5) == 0.0
    model = c2.ratio_models["inv_d"]
    assert model.mu(2.0) == 1.0
    assert math.isclose(model.mu(4.0), 0.75, rel_tol=1e-15)
    for t in (0.9, 0.5, 1e-6, 1e-12):
        assert math.isclose(model.mu(model.quantile(t)), t, rel_tol=1e-12)


def test_punctured_ball_distances():
    pb = gallery("punctured_ball2")
    assert distance(pb, (0.25, 0.0)) == 0.25
    assert math.isclose(distance(pb, (0.9, 0.0)), 0.1, rel_tol=1e-12)
    assert not pb.inside(np.array([0.0, 0.0]))  # the puncture is excluded
    assert math.isclose(pb.measure, math.pi, rel_tol=1e-15)
    model = pb.ratio_models["hardy_ratio"]
    assert model.mu(0.5) == math.pi
    assert math.isclose(model.mu(3.0), math.pi / 16.0, rel_tol=1e-15)


def test_rooms_geometry_invariants():
    geo = rooms_geometry(12)
    # passages keep a positive free span between the chords of their rooms
    assert np.all(geo["x_entry"] > geo["x_exit"])
    assert geo["measure"] > 0
    # tail measures shrink with the cut index and exceed the next room
    tails = [rooms_tail_cut(geo, m)[1] for m in range(2, 13)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    for m, tail in zip(range(2, 13), tails):
        assert tail > math.pi * 4.0 ** -(m + 1)
    with pytest.raises(ValueError):
        rooms_tail_cut(geo, 1)
    with pytest.raises(ValueError):
        rooms_tail_cut(geo, 13)


def test_rooms_distances():
    dom = gallery("rooms_and_passages", kmax=6)
    geo = rooms_geometry(6)
    assert math.isclose(distance(dom, (geo["centers"][0], 0.0)), 0.5,
                        rel_tol=1e-12)
    mid = 0.5 * (geo["x_exit"][0] + geo["x_entry"][0])
    assert math.isclose(distance(dom, (mid, 0.0)), 2.0**-5, rel_tol=1e-12)
    mid2 = 0.5 * (geo["x_exit"][1] + geo["x_entry"][1])
    assert math.isclose(distance(dom, (mid2, 0.0)), 2.0**-9, rel_tol=1e-12)


def test_skyscraper_distances_and_measure():
    dom = gallery("skyscrapers", kmax=3)
    assert distance(dom, (0.0, -0.5)) == 0.5
    assert math.isclose(distance(dom, (0.53, 0.5)), 0.03, rel_tol=1e-12)
    assert math.isclose(dom.measure, 2.0 + 2.0**-4 + 2.0**-5 + 2.0**-6,
                        rel_tol=1e-15)


def test_crocodile_mouth():
    dom = gallery("crocodile", kmax=12)
    assert dom.measure == 3.75
    assert gallery("crocodile", kmax=2).measure == 3.75
    assert dom.inside(np.array([0.5, 0.2]))
    assert dom.inside(np.array([0.5, -0.2]))
    assert not dom.inside(np.array([0.5, 0.1]))  # inside the mouth wedge
    assert not dom.inside(np.array([0.5, 0.0]))
    assert math.isclose(distance(dom, (-0.5, 0.5)), 0.5, rel_tol=1e-12)


def test_crocodile_thickness_is_half_x():
    # the mouth profiles, located by bisection on the inside predicate,
    # differ by exactly x/2 at every abscissa
    dom = gallery("crocodile", kmax=9)

    def mouth_edge(x, outside_y):
        # bracket [mouth, domain] straddles one profile; bisect to it
        lo, hi = 0.0, outside_y
        assert not dom.inside(np.array([x, lo]))
        assert dom.inside(np.array([x, hi]))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dom.inside(np.array([x, mid])):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(7)
    for x in rng.uniform(1e-4, 0.999, size=25):
        a_val = mouth_edge(x, 0.99)
        b_val = mouth_edge(x, -0.99)
        assert abs((a_val - b_val) - x / 2.0) < 1e-9


def test_distance_is_lipschitz():
    rng = np.random.default_rng(2)
    for tag in ("cube2", "rooms_and_passages", "crocodile"):
        dom = gallery(tag, kmax=5)
        pts = []
        while len(pts) < 40:
            cand = rng.uniform(dom.bbox[:, 0], dom.bbox[:, 1])
            if dom.inside(cand):
                pts.append(cand)
        for i in range(0, 40, 2):
            x, y = pts[i], pts[i + 1]
            dx, dy = distance(dom, x), distance(dom, y)
            assert abs(dx - dy) <= np.linalg.norm(x - y) * (1 + 1e-12) + 1e-15


def test_boundary_distance_primitives():
    segs = (("segment", (0.0, 0.0), (1.0, 0.0)),)
    assert math.isclose(boundary_distance(segs, np.array([0.5, 0.3])), 0.3)
    assert math.isclose(boundary_distance(segs, np.array([2.0, 0.0])), 1.0)
    arc = (("arc", (0.0, 0.0), 1.0, 0.0, math.pi),)  # upper half circle
    assert math.isclose(boundary_distance(arc, np.array([0.0, 0.5])), 0.5)
    # below the arc's angular range the nearest point is an endpoint
    assert math.isclose(boundary_distance(arc, np.array([0.0, -1.0])),
                        math.sqrt(2.0), rel_tol=1e-12)


def _hypot_distance(prim, x: float, y: float) -> float:
    """Plain-Python distance from (x, y) to one segment or arc primitive."""
    if prim[0] == "segment":
        (ax, ay), (bx, by) = prim[1], prim[2]
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        t = 0.0 if L2 == 0 else min(1.0, max(0.0, ((x - ax) * dx + (y - ay) * dy) / L2))
        return math.hypot(x - ax - t * dx, y - ay - t * dy)
    _, (cx, cy), R, a0, a1 = prim
    theta = a0 + (math.atan2(y - cy, x - cx) - a0) % (2.0 * math.pi)
    if theta <= a1:
        return abs(math.hypot(x - cx, y - cy) - R)
    return min(math.hypot(x - cx - R * math.cos(a), y - cy - R * math.sin(a))
               for a in (a0, a1))


@pytest.mark.parametrize("tag", ["rooms_and_passages", "squares_stack", "crocodile",
                                 "skyscrapers", "punctured_ball2"])
def test_tiled_distance_is_the_exact_minimum(tag):
    dom = gallery(tag)
    prims = dom.boundary
    rng = np.random.default_rng([7, len(prims)])
    pts = rng.uniform(dom.bbox[:, 0], dom.bbox[:, 1], size=(60, 200, 2))
    assert pts[..., 0].size >= domains._CULL_MIN_POINTS  # tiles are on
    got = boundary_distance(prims, pts)
    assert got.shape == (60, 200)
    # one primitive at a time takes the untiled path
    each = np.minimum.reduce([boundary_distance((p,), pts) for p in prims])
    assert np.array_equal(got, each)
    flat, dist = pts.reshape(-1, 2), got.ravel()
    for i in rng.choice(len(flat), size=50, replace=False):
        x, y = flat[i]
        oracle = min(_hypot_distance(p, x, y) for p in prims)
        assert abs(dist[i] - oracle) <= 1e-12
        # one point gives a float, equal to its value in the batch
        single = boundary_distance(prims, flat[i])
        assert type(single) is float and single == dist[i]


def test_tiles_skip_primitives_that_cannot_be_nearest(monkeypatch):
    evaluated = []
    kernel = domains._squared_distance

    def counting(prim, cols):
        evaluated.append(len(cols[0]))
        return kernel(prim, cols)

    monkeypatch.setattr(domains, "_squared_distance", counting)
    gd = rasterize(gallery("squares_stack"), 2.0**-8)
    occupied = int(gd.occupancy.sum())
    # without tiles every occupied cell meets all 50 primitives
    assert len(gd.domain.boundary) == 50
    assert 0 < sum(evaluated) <= 12 * occupied


# ---------------------------------------------------------------------------
# rasterization


def test_rasterize_cube_is_exact():
    gd = rasterize(gallery("cube2"), 2.0**-5)
    assert gd.occupancy.all()
    assert gd.grid_measure == 1.0
    assert gd.occupancy.shape == (32, 32)
    assert gd.distance_field[0, 0] == 2.0**-6
    assert gd.distance_field[16, 16] == min(16.5 * 2.0**-5, 1 - 16.5 * 2.0**-5)


def test_rasterize_snaps_bbox_up():
    from sobtrace.domains import rectangle

    gd = rasterize(rectangle(0.3), 2.0**-5)
    assert gd.occupancy.shape == (32, 10)
    assert any("covered by" in note for note in gd.notes)


def test_rasterize_notes_thin_features():
    dom = gallery("skyscrapers", kmax=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gd = rasterize(dom, 2.0**-6)
    assert any("thinnest feature" in note for note in gd.notes)


def test_rasterize_validation():
    with pytest.raises(ValueError):
        rasterize(gallery("cube2"), 0.0)
    with pytest.raises(ValueError, match="finite"):
        rasterize(gallery("cube2"), math.inf)
    with pytest.raises(ValueError, match="finite"):
        rasterize(gallery("cube2"), math.nan)
    # one cell centred at (2.5, 2.5), outside the unit square
    with pytest.raises(ValueError, match="no cell center"):
        rasterize(gallery("cube2"), 5.0)


def test_rasterize_cell_budget_is_checked_before_allocating(monkeypatch):
    dom = gallery("cube3")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"1073741824 cells.*2\^-8"):
            rasterize(dom, 2.0**-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="budget"):
        rasterize(dom, 1e-300)
    # a grid of exactly the budget is allowed
    monkeypatch.setattr(domains, "_MAX_CELLS", 2**12)
    assert rasterize(gallery("cube2"), 2.0**-6).occupancy.size == 2**12
    with pytest.raises(ValueError, match=r"16384 cells.*2\^-6"):
        rasterize(gallery("cube2"), 2.0**-7)


def test_rasterize_measures_distance_at_inside_points_only():
    seen = []
    base = gallery("punctured_ball2")

    def dist(pts):
        seen.append(np.array(pts))
        return base.distance_fn(pts)

    dom = dataclasses.replace(base, distance_fn=dist)
    gd = rasterize(dom, 2.0**-6)
    (pts,) = seen
    assert pts.shape == (int(gd.occupancy.sum()), 2)
    assert np.all(base.inside(pts))
    assert np.all(gd.distance_field[~gd.occupancy] == 0.0)


def test_boundary_primitives_give_the_default_distance():
    dom = dataclasses.replace(gallery("cube2"), distance_fn=None)
    assert dom.distance_fn is not None
    for h in (2.0**-5, 2.0**-8):
        gd = rasterize(dom, h)
        exact = rasterize(gallery("cube2"), h)
        assert np.array_equal(gd.distance_field, exact.distance_field)
    assert distance(dom, [0.25, 0.5]) == 0.25


def test_rasterize_needs_a_distance_oracle():
    dom = dataclasses.replace(gallery("cube3"), distance_fn=None)
    assert dom.distance_fn is None
    with pytest.raises(ValueError, match="no exact distance oracle"):
        rasterize(dom, 2.0**-3)
    with pytest.raises(ValueError, match="no exact distance oracle"):
        distance(dom, [0.5, 0.5, 0.5])


def test_grid_domain_csv():
    gd = rasterize(gallery("cube2"), 2.0**-3)
    text = gd.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,inside,distance"
    assert len(lines) == 1 + 64
    i, j, ins, d = lines[1].split(",")
    assert (i, j, ins) == ("0", "0", "1")
    assert float(d) == 2.0**-4


def test_skyscrapers_dyadic_rasterization_is_exact(sky3_g6):
    assert math.isclose(sky3_g6.grid_measure, sky3_g6.domain.measure,
                        rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Monte Carlo ball portions


def test_ball_portion_flat_edge():
    c2 = gallery("cube2")
    est = ball_portion_ratio(c2, (0.5, 0.0), 0.125, mc_samples=20000)
    assert abs(est.ratio - 0.5) <= 4.0 * est.stderr
    assert est.n == 20000
    assert est.radius == 0.125


def test_ball_portion_corner():
    c2 = gallery("cube2")
    est = ball_portion_ratio(c2, (0.0, 0.0), 0.1, mc_samples=20000)
    assert abs(est.ratio - 0.75) <= 4.0 * est.stderr


def test_ball_portion_curved_boundary():
    pb = gallery("punctured_ball2")
    est = ball_portion_ratio(pb, (1.0, 0.0), 0.05, mc_samples=20000)
    # curvature shifts the flat-boundary value 1/2 by O(r)
    assert abs(est.ratio - 0.5) <= 4.0 * est.stderr + 0.02


def test_ball_portion_gap_probe_matches_chord_integral():
    dom = gallery("squares_stack", kmax=8)
    k = 4
    z = (2.0 ** -(k - 1) - 2.0 ** (-2 * k - 1), 0.0)
    rho = 2.0**-k - 2.0 ** (-2 * k)
    w = 2.0 ** (-2 * k)
    c = w / 2.0
    chord = (c * math.sqrt(rho**2 - c**2) + rho**2 * math.asin(c / rho)) / 2.0
    expected = 2.0 * chord / (math.pi * rho**2)
    est = ball_portion_ratio(dom, z, rho, mc_samples=100000)
    assert abs(est.ratio - expected) <= 4.0 * est.stderr


def test_ball_portion_is_deterministic():
    c2 = gallery("cube2")
    a = ball_portion_ratio(c2, (0.5, 0.0), 0.125, mc_samples=5000, seed=9)
    b = ball_portion_ratio(c2, (0.5, 0.0), 0.125, mc_samples=5000, seed=9)
    assert a.ratio == b.ratio
    assert a.stderr == b.stderr
    c = ball_portion_ratio(c2, (0.5, 0.0), 0.125, mc_samples=5000, seed=10)
    assert a.ratio != c.ratio


def test_ball_portion_validation():
    c2 = gallery("cube2")
    with pytest.raises(ValueError):
        ball_portion_ratio(c2, (0.5, 0.5), 0.1)  # interior point
    with pytest.raises(ValueError):
        ball_portion_ratio(c2, (0.5, 0.0), -0.1)
    with pytest.raises(ValueError):
        ball_portion_ratio(c2, (0.5, 0.0), 0.1, mc_samples=10)


def test_scan_finds_squares_stack_sequence():
    report = ball_portion_scan(gallery("squares_stack", kmax=8),
                               mc_samples=20000)
    assert report.verdict == VIOLATED_SEQUENCE_FOUND
    seq = report.violating_sequence
    assert len(seq) >= 3
    radii = [row[1] for row in seq]
    assert radii == sorted(radii, reverse=True)
    assert seq[-1][2] < report.b_threshold
    payload = json.loads(report.to_json())
    assert payload["verdict"] == VIOLATED_SEQUENCE_FOUND
    assert len(payload["probes"]) == len(report.probes)
    # at 100000 samples: five gaps, gap k probed at radius 2^-k - 2^-2k,
    # whose ball portion is 1 / (pi (2^k - 1)) within 3 stderr
    dom = gallery("squares_stack", kmax=8)
    report = ball_portion_scan(dom, mc_samples=100000)
    assert report.verdict == VIOLATED_SEQUENCE_FOUND
    seq = report.violating_sequence
    assert len(seq) == 5
    for point, radius, ratio, stderr, n in seq:
        assert n == 100000
        k = round(-math.log2(radius))
        assert radius == 2.0**-k - 2.0 ** (-2 * k)
        expected = 1.0 / (math.pi * (2.0**k - 1.0))
        assert abs(ratio - expected) <= 3.0 * stderr
    assert ball_portion_scan(dom, mc_samples=100000).to_json() == report.to_json()


def test_scan_cube_plausibly_satisfied():
    report = ball_portion_scan(gallery("cube2"), mc_samples=20000)
    assert report.verdict == PLAUSIBLY_SATISFIED
    # flat edges keep half the ball outside; corners three quarters
    assert 0.4 <= report.infimum_estimate <= 0.6


def test_scan_crocodile_apex_band():
    report = ball_portion_scan(gallery("crocodile", kmax=12), mc_samples=20000)
    assert report.verdict == PLAUSIBLY_SATISFIED
    apex = [row for row in report.probes
            if row[0] == (0.0, 0.0) and row[1] <= 2.0**-5]
    assert apex
    for row in apex:
        assert 0.05 <= row[2] < 0.105


def test_scan_is_deterministic():
    dom = gallery("squares_stack", kmax=6)
    a = ball_portion_scan(dom, mc_samples=2000)
    b = ball_portion_scan(dom, mc_samples=2000)
    assert a.to_json() == b.to_json()


def test_scan_validation():
    with pytest.raises(ValueError):
        ball_portion_scan(gallery("cube2"), b_threshold=0.0)
    from sobtrace.domains import rectangle

    with pytest.raises(ValueError):
        ball_portion_scan(rectangle(0.5))  # no registered probes


def test_scan_explicit_boundary_samples():
    report = ball_portion_scan(
        gallery("cube2"),
        boundary_samples=[(0.25, 0.0)],
        radii=(0.125, 0.0625),
        mc_samples=2000,
    )
    assert len(report.probes) == 2


# ---------------------------------------------------------------------------
# rendering and serialization


def test_render_svg_gallery():
    for tag in ("cube2", "punctured_ball2", "rooms_and_passages",
                "squares_stack", "crocodile", "skyscrapers"):
        dom = gallery(tag, kmax=6)
        svg = render_svg(dom)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert dom.descriptor["tag"] in svg  # caption carries the tag


def test_render_svg_arcs_and_teeth():
    svg = render_svg(gallery("rooms_and_passages", kmax=4))
    assert 'A ' in svg or "<circle" in svg
    croc = render_svg(gallery("crocodile", kmax=6))
    assert croc.count("<line") > 20


def test_render_svg_witness_overlay(sky3_g6):
    mask = sky3_g6.occupancy & (sky3_g6.centers()[..., 0] < 0.0)
    svg = render_svg(sky3_g6.domain, witness=mask, gd=sky3_g6)
    assert 'fill="#9ecbff"' in svg


def test_render_svg_needs_planar_boundary():
    with pytest.raises(ValueError):
        render_svg(gallery("cube3"))
    with pytest.raises(ValueError):
        render_svg(gallery("cube1"))


def test_domain_json_descriptor():
    payload = json.loads(gallery("squares_stack", kmax=5).to_json())
    assert payload["tag"] == "squares_stack"
    assert payload["kmax"] == 5
    assert len(payload["intervals"]) == 5


def test_unit_cube_validation():
    with pytest.raises(ValueError):
        unit_cube(0)
    with pytest.raises(ValueError):
        gallery("rooms_and_passages", kmax=1)
