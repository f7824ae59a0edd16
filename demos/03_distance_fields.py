"""Distance-to-boundary fields over the domain gallery.

Rasterizes a few gallery domains, prints the weak L^{1,inf} norm of 1/d
against the closed-form value 2N for cubes, and writes an SVG line
drawing of the rooms-and-passages chain.
"""

import math
import pathlib

from sobtrace.domains import gallery, rasterize, render_svg
from sobtrace.traces import constant_function, weak_norm_estimate


def main() -> None:
    print("weak L^(1,inf) norm of 1/d on unit cubes (closed form 2N):")
    for tag, h in (("cube1", 2.0**-8), ("cube2", 2.0**-7), ("cube3", 2.0**-5)):
        gd = rasterize(gallery(tag), h)
        est = weak_norm_estimate(constant_function(gd))
        n = gd.domain.dimension
        print(f"  {tag}: grid {est.estimate:.12f}  (target {2 * n}, "
              f"raw staircase sup {est.raw_sup:.4f})")

    gdp = rasterize(gallery("punctured_ball2"), 2.0**-8)
    est = weak_norm_estimate(constant_function(gdp))
    print(f"  punctured_ball2: grid {est.estimate:.6f}  "
          f"(continuum value 2*pi = {2 * math.pi:.6f})")

    dom = gallery("rooms_and_passages", kmax=5)
    svg = render_svg(dom)
    out = pathlib.Path("rooms_and_passages.svg")
    out.write_text(svg)
    print(f"\nwrote {out} ({len(svg)} bytes of line art)")
    print("thinnest passage width:", dom.thinnest_feature)


if __name__ == "__main__":
    main()
