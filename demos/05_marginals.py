"""Marginal phase-space densities and what they say about correlations.

Writing alpha = x + iy and beta = u + iv and integrating the joint no-click
density (or the Wigner function) over (x, u) leaves a probability density in
the two remaining quadratures.  The Wigner marginal is pointwise nonnegative.
For a single photon the two variables are *linearly* correlated
(r = -1/3 for the no-click marginal, -1/2 for the Wigner one); for N >= 2
the linear correlation vanishes exactly, yet the joint density is far from
the product of its marginals -- the correlations turn nonlinear.

Run:  python3 demos/05_marginals.py      (writes heatmaps to demos/out/)
"""

from pathlib import Path

from noonbell import (
    correlation_coefficient,
    density_grid,
    factored_l1_distance,
    grid_to_csv,
    marginal_integral,
)
from noonbell.svgplot import heatmap_svg

HERE = Path(__file__).parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

print("=== normalization ===")
for kind in ("q-marginal", "w-marginal"):
    for n in (1, 2, 3):
        mass = marginal_integral(kind, n)
        print(f"  {kind} N={n}: integrates to {mass:.12f}")

print()
print("=== linear correlation coefficient ===")
for kind in ("q-marginal", "w-marginal"):
    for n in (1, 2, 3):
        r = correlation_coefficient(kind, n)
        print(f"  {kind} N={n}: r = {r:+.12f}")

print()
print("=== nonlinear dependence despite r = 0 ===")
for n in (2, 3):
    d_q = factored_l1_distance("q-marginal", n)
    d_w = factored_l1_distance("w-marginal", n)
    # a trapezoid sum of |joint - product|, within 3.2e-4 of a twice finer one
    print(f"  N={n}: L1(joint, product of marginals) = {d_q:.2f} (q), {d_w:.2f} (w)")

print()
print("=== heatmaps ===")
for kind, tag in (("q-marginal", "q"), ("w-marginal", "w")):
    for n in (1, 2, 3):
        grid = density_grid(kind, n, 3.0, 64)
        svg_path = OUT / f"{tag}_marginal_n{n}.svg"
        svg_path.write_text(
            heatmap_svg(grid.values, grid.y_min, grid.y_max, title=f"{kind}, N = {n}")
        )
        print(f"  wrote {svg_path.relative_to(HERE)}")
csv_path = OUT / "w_marginal_n3.csv"
csv_path.write_text(grid_to_csv(density_grid("w-marginal", 3, 3.0, 64)))
print(f"  wrote {csv_path.relative_to(HERE)}")
print()
print("The N=1 densities concentrate along y = -v; for larger N the pattern")
print("grows more symmetric, with the interference rings far more pronounced")
print("in the Wigner marginal than in the no-click one.")
