"""The truncated Fock-space oracle: brute force against every closed form.

Nothing here uses the analytic expressions -- states are dense coefficient
arrays, displacements are matrices, expectation values are linear algebra.
Agreement with the closed-form correlators to ~1e-12 on random settings is
the strongest correctness evidence the library has, because the two routes
share no code.

The same simulator demonstrates the local-unitary argument for why some
violation should survive at every N: swapping |1> and |n> in each mode is a
local operation that carries the one-photon entangled state exactly onto the
n-photon one.

Run:  python3 demos/06_fock_oracle.py
"""

import math

import numpy as np

from noonbell import (
    apply_swap_unitary,
    coherent_state,
    default_cutoff,
    displacement_matrix,
    noon_state,
    oracle_parity_corr,
    oracle_q_joint,
    parity_corr,
    q_joint,
)

rng = np.random.default_rng(12)

print("=== closed form vs brute force ===")
worst_q = worst_pi = 0.0
for trial in range(40):
    n = int(rng.integers(1, 5))
    a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    cutoff = default_cutoff(n, a, b)
    worst_q = max(worst_q, abs(q_joint(n, a, b) - oracle_q_joint(n, a, b, max(cutoff, 32))))
    worst_pi = max(
        worst_pi, abs(parity_corr(n, a, b) - oracle_parity_corr(n, a, b, max(cutoff, 32)))
    )
print(f"  40 random settings, n <= 4:  no-click error {worst_q:.2e}, parity error {worst_pi:.2e}")

print()
print("=== displacement matrices ===")
alpha = 0.9 - 0.6j
d = displacement_matrix(alpha, 48)
coh = coherent_state(alpha, 48)
print(f"  D(a)|0> equals the coherent state: {np.max(np.abs(d[:, 0] - coh)):.2e}")
dm = displacement_matrix(-alpha, 48)
block = 12
defect = np.max(np.abs((d @ dm)[:block, :block] - np.eye(block)))
print(f"  D(a) D(-a) = 1 on the lowest {block}x{block} block: defect {defect:.2e}")

print()
print("=== local unitary equivalence ===")
one = noon_state(1, 16)
for n in (2, 3, 5):
    mapped = apply_swap_unitary(n, one)
    target = noon_state(n, 16)
    err = np.max(np.abs(mapped - target))
    print(f"  (U x U) |one-photon state> -> |{n}-photon state>: error {err:.1e}")
print("  A local swap of |1> and |n> in each arm maps the one-photon state")
print("  exactly onto the n-photon one, so any Bell test whose violation")
print("  decays with N is simply not using optimal measurements.")

print()
print("=== parity at the origin reads the total photon number ===")
for n in (1, 2, 3, 4):
    print(f"  n={n}: oracle parity at origin = {oracle_parity_corr(n, 0.0, 0.0, 20):+.6f}")
print(f"  (reference: 2 e^-2 = {2 * math.exp(-2):.6f} is the n=1 no-click peak at (1, -1):",
      f"{oracle_q_joint(1, 1.0, -1.0, 40):.6f})")
