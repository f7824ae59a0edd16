"""Hand-computed values for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_oracles.py``.  None of these
tests imports sobtrace: the oracles must stand on their own.
"""

import math

import pytest

import oracles


def test_segment_distance():
    assert oracles.segment_distance(0.0, 1.0, (0.0, 0.0), (2.0, 0.0)) == 1.0
    assert oracles.segment_distance(-3.0, 4.0, (0.0, 0.0), (1.0, 0.0)) == 5.0
    assert oracles.segment_distance(4.0, 4.0, (0.0, 0.0), (1.0, 0.0)) == 5.0
    assert oracles.segment_distance(3.0, 4.0, (0.0, 0.0), (0.0, 0.0)) == 5.0
    assert oracles.segment_distance(1.0, 1.0, (0.0, 0.0), (2.0, 2.0)) == 0.0


def test_arc_distance():
    quarter = ((0.0, 0.0), 1.0, 0.0, math.pi / 2.0)
    assert oracles.arc_distance(2.0, 0.0, *quarter) == 1.0
    assert oracles.arc_distance(0.0, 0.0, *quarter) == 1.0
    # below the arc the nearest point is the endpoint (1, 0)
    assert oracles.arc_distance(0.0, -2.0, *quarter) == pytest.approx(math.sqrt(5.0), abs=1e-15)
    # an arc that wraps past 2 pi, as the rooms chain uses
    wrap = ((0.0, 0.0), 1.0, 1.5 * math.pi, 2.5 * math.pi)
    assert oracles.arc_distance(3.0, 0.0, *wrap) == 2.0
    assert oracles.arc_distance(-0.5, 0.0, *wrap) == pytest.approx(math.hypot(0.5, 1.0), abs=1e-15)


def test_primitive_distance_takes_the_nearest():
    square = [("segment", (0.0, 0.0), (1.0, 0.0)), ("segment", (1.0, 0.0), (1.0, 1.0)),
              ("segment", (1.0, 1.0), (0.0, 1.0)), ("segment", (0.0, 1.0), (0.0, 0.0))]
    assert oracles.primitive_distance(0.25, 0.125, square) == 0.125
    assert oracles.primitive_distance(0.5, 0.5, square) == 0.5
    with pytest.raises(ValueError):
        oracles.primitive_distance(0.0, 0.0, [("spline", (0.0, 0.0))])


def test_cube_closed_forms():
    assert oracles.cube_distance((0.25, 0.1)) == 0.1
    assert oracles.cube_distance((0.9, 0.5, 0.3)) == pytest.approx(0.1, abs=1e-15)
    assert oracles.cube_inv_d_mu(4.0, 2) == 0.75
    assert oracles.cube_inv_d_mu(8.0, 3) == 1.0 - 0.75**3
    assert oracles.cube_inv_d_mu(1.5, 2) == 1.0
    assert oracles.cube_weak_norm(3) == 6.0


def test_punctured_disc_closed_forms():
    assert oracles.punctured_disc_distance((0.3, 0.4)) == 0.5
    assert oracles.punctured_disc_distance((0.6, 0.0)) == pytest.approx(0.4, abs=1e-15)
    assert oracles.punctured_disc_inv_d_mu(4.0) == math.pi / 2.0
    assert oracles.punctured_disc_inv_d_weak_norm() == 2.0 * math.pi
    assert oracles.punctured_disc_hardy_mu(1.0) == math.pi / 4.0
    assert oracles.punctured_disc_hardy_mu(3.0) == math.pi / 16.0
    with pytest.raises(ValueError):
        oracles.punctured_disc_hardy_mu(0.5)


def test_rectangle_bracket():
    h = 2.0**-7
    lo, hi = oracles.rectangle_profile_bracket(0.5, 0.125, h)
    assert lo == pytest.approx(math.sqrt(0.125) - 4.0 * h, abs=1e-15)
    assert hi == 0.5 + 4.0 * h
    lo, hi = oracles.rectangle_profile_bracket(0.5, 0.04, h)
    assert hi == pytest.approx(math.sqrt(0.04 * math.pi) + 4.0 * h, abs=1e-15)


def test_squares_gap_ratio():
    assert oracles.squares_gap_ratio(2) == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-15)
    assert oracles.squares_gap_ratio(6) == pytest.approx(1.0 / (63.0 * math.pi), rel=1e-15)


def test_circle_outside_fraction():
    # two unit circles a unit apart overlap in 2 pi/3 - sqrt(3)/2
    inside = (2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0) / math.pi
    assert oracles.circle_outside_fraction(1.0, 1.0) == pytest.approx(1.0 - inside, abs=1e-14)
    # a small ball on a large circle sees a half plane
    assert oracles.circle_outside_fraction(1.0, 1e-4) == pytest.approx(0.5, abs=1e-4)
    assert oracles.circle_outside_fraction(1.0, 4.0) == 1.0 - 1.0 / 16.0


def test_weak_norm_numpy():
    assert oracles.weak_norm_numpy([2.0, 1.0], [1.0, 1.0]) == 2.0
    assert oracles.weak_norm_numpy([1.0, 3.0], [1.0, 1.0]) == 3.0
    assert oracles.weak_norm_numpy([1.0, 1.0, 1.0], [0.5, 0.5, 1.0]) == 2.0
    assert oracles.weak_norm_numpy([4.0], [1.0], p=2.0) == 4.0


def test_lorentz_mp_step_functions():
    # f = 1 on a set of measure 1: ||f||_{p,q} = (p/q)^{1/q}
    assert float(oracles.lorentz_mp([1.0], [1.0], 2.0, 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert float(oracles.lorentz_mp([1.0], [1.0], 1.0, 2.0)) == pytest.approx(
        math.sqrt(0.5), rel=1e-15)
    # L^{1,1} is the integral, L^{1,inf} the weak norm
    assert float(oracles.lorentz_mp([2.0, 1.0], [1.0, 1.0], 1.0, 1.0)) == pytest.approx(3.0, rel=1e-15)
    assert float(oracles.lorentz_mp([1.0, 2.0], [1.0, 1.0], 1.0, math.inf)) == 2.0
    # values [3, 1] on measures 1e3 each at (1, 400): the first step dominates,
    # (3000^400 / 400)^{1/400} up to a relative 1e-70
    expected = 3000.0 * math.exp(-math.log(400.0) / 400.0)
    got = float(oracles.lorentz_mp([3.0, 1.0], [1e3, 1e3], 1.0, 400.0))
    assert got == pytest.approx(expected, rel=1e-14)


def test_embedding_constant():
    assert oracles.embedding_constant(2.0, 1.0, math.inf) == 2.0
    assert oracles.embedding_constant(3.0, 1.0, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert oracles.embedding_constant(2.0, math.inf, math.inf) == 1.0
