"""The six-event inequalities j1..j4: four settings, all six pairwise joint
probabilities, evaluated directly on the no-click probabilities Q.

Two of them are saturated by the trivial all-zero settings, where every
single Q is exactly 1/2 and every joint Q vanishes:

    j1 <= 1  is beaten at value 2,   j2 <= 3  is beaten at value 4,

for every photon number -- the violation does not decay with N.  j3 >= 0 is
violated by an N-dependent, shrinking amount.  j4 <= 1 approaches 1.5 when
one setting is sent to infinite amplitude, but its true optimum is an
interior point and slightly larger still.

Run:  python3 demos/04_six_event_inequalities.py   (writes demos/out/j3_margin.svg)
"""

import math
from pathlib import Path

import numpy as np

from noonbell import (
    OptimizerConfig,
    catalog,
    certify_with_grid,
    evaluate_functional,
    functional_limit,
    optimize,
)
from noonbell.svgplot import line_plot_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)
CAT = catalog()
zeros = np.zeros(4, dtype=complex)

print("=== all-zero witnesses ===")
for which, bound in ((1, 1.0), (2, 3.0), (3, 0.0), (4, 1.0)):
    value = evaluate_functional(CAT[f"j{which}"], 3, zeros)
    note = "violates" if (value > bound if which != 3 else value < bound) else "inside"
    print(f"  j{which}(0,0,0,0) = {value:.2f}   bound {bound:+.0f}   ({note})")

print()
print("=== plateaus certified by exhaustive grids ===")
for name in ("j1", "j2"):
    r = optimize(CAT[name], 4, OptimizerConfig(rng_seed=7, num_starts=32))
    cert = certify_with_grid(CAT[name], 4, r, grid_points=5)
    print(
        f"  {name}: optimum {r.best_value:.10f}, grid best {cert.grid_best_value:.10f},"
        f" gap {cert.gap:+.1e}"
    )

print()
print("=== j3: shrinking violation ===")
j3_values = []
for n in range(1, 5):
    r = optimize(CAT["j3"], n, OptimizerConfig(rng_seed=13 ^ n, num_starts=32))
    j3_values.append(r.best_value)
    print(f"  N={n}:  min j3 = {r.best_value:.6f}")

svg = line_plot_svg(
    list(range(1, 5)),
    [-v for v in j3_values],
    title="j3 violation below its classical floor of 0",
    x_label="photon number N",
    y_label="violation margin",
    hline=0.0,
)
(OUT / "j3_margin.svg").write_text(svg)
print(f"  wrote {OUT / 'j3_margin.svg'}")

print()
print("=== j4: the 1.5 limit versus the true optimum ===")
limit = functional_limit(CAT["j4"], 1, zeros, [False, False, False, True])
print(f"  large-|delta| limit of j4(0,0,0,delta): {limit}")
interior = evaluate_functional(CAT["j4"], 1, [0, 0, 0, math.sqrt(3.0)])
print(f"  j4(0,0,0,sqrt(3)) = {interior:.6f}  (already above 1.5)")
for n in (1, 2, 3):
    r = optimize(CAT["j4"], n, OptimizerConfig(rng_seed=17 ^ n, num_starts=32))
    print(f"  N={n}:  max j4 = {r.best_value:.6f}  at settings {np.round(r.best_settings, 3)}")
print("  The flat 1.5 shelf at large amplitudes is easy for a numerical")
print("  search to mistake for the optimum; the interior peak is higher.")
