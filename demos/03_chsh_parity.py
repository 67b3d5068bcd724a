"""CHSH with correlated parity measurements: violated only by one photon.

The CHSH combination of displaced-parity correlators is classically bounded
by |value| <= 2, and by 2 sqrt(2) for any quantum state.  For odd N the
all-zero settings already sit on the lower edge (-2); for N = 1 the optimum
pushes past it to about -2.2387, while for every N >= 2 neither side of the
band can be crossed.

Run:  python3 demos/03_chsh_parity.py
"""

import math
from dataclasses import replace

from noonbell import OptimizerConfig, catalog, evaluate_functional, optimize

chsh = catalog()["chsh"]

print("=== the all-zero settings sit on the classical edge ===")
for n in (1, 2, 3):
    print(f"  N={n}:  value(0,0,0,0) = {evaluate_functional(chsh, n, [0, 0, 0, 0]):+.1f}")

print()
print("=== optimized band crossings, N = 1..5 ===")
print("  (searching both sides: the catalog directs the search below -2,")
print("   the mirrored functional guards the +2 side)")
for n in range(1, 6):
    low = optimize(chsh, n, OptimizerConfig(rng_seed=5 ^ n, num_starts=32))
    high = optimize(
        replace(chsh, violation_direction="above-upper"),
        n,
        OptimizerConfig(rng_seed=11 ^ n, num_starts=32),
    )
    verdict = "VIOLATION" if max(abs(low.best_value), abs(high.best_value)) > 2.0 + 1e-6 else "classical"
    print(
        f"  N={n}:  min = {low.best_value:+.6f}   max = {high.best_value:+.6f}   {verdict}"
    )

print()
print(f"Tsirelson bound 2 sqrt(2) = {2 * math.sqrt(2):.6f} is respected throughout;")
print("the one-photon state is the only one whose parity correlations leave")
print("the classical band, and it does so on the negative side.")
