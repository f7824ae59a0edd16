"""Isoperimetric profile estimates: closed forms, floors, and witnesses.

Sweeps the rectangle profile through its quarter-disc and strip regimes,
checks grid search witnesses against the closed form, prints the tower
domain's s/sqrt(2) floor, and tabulates rooms-chain tail cuts against the
quadratic bound that forces the profile to vanish superlinearly.
"""

import math

import numpy as np

from sobtrace.domains import rasterize, rectangle, gallery
from sobtrace.isoperimetry import (
    profile_search,
    rectangle_profile,
    rooms_passages_witness,
    skyscraper_profile_bound,
)


def main() -> None:
    a = 0.5
    gd = rasterize(rectangle(a), 2.0**-7)
    print(f"rectangle (0,1) x (0,{a:g}): profile vs sqrt(2 a s) lower bound")
    print(f"{'s':>8} {'lower':>9} {'closed':>9} {'grid':>9}  witness")
    for s in (0.01, 0.05, a * a / math.pi, 0.12, 0.2, 0.25):
        prof = rectangle_profile(a, s)
        point = profile_search(gd, s)
        print(f"{s:8.4f} {prof.lower_bound:9.5f} {prof.witness_perimeter:9.5f}"
              f" {point.witness_perimeter:9.5f}  {prof.witness['kind']}")

    sky = rasterize(gallery("skyscrapers", kmax=3), 2.0**-6)
    print("\ntower domain: grid witnesses stay above the s/sqrt(2) floor")
    for s in (0.25, 0.5, 1.0):
        point = profile_search(sky, s)
        floor = skyscraper_profile_bound(s, sky.domain)
        print(f"  s={s:4.2f}: witness {point.witness_perimeter:.5f} "
              f">= floor {floor:.5f}  ({point.witness.get('kind', '?')})")

    print("\nrooms chain: tail-cut perimeter <= (2^8 / pi^2) s^2")
    print(f"{'s':>12} {'perimeter':>12} {'bound':>12}")
    for s in np.geomspace(1e-4, math.pi * 2.0**-4 * 0.99, 8):
        w = rooms_passages_witness(float(s), kmax=20)
        print(f"{s:12.6g} {w['perimeter']:12.6g} {w['quadratic_bound']:12.6g}")


if __name__ == "__main__":
    main()
