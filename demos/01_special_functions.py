"""Log-domain Bessel machinery and its exactness checks.

The interaction energy needs products like I_nu(a1 xi) K_nu(a2 xi) at orders
up to a few thousand, where the factors overflow doubles by hundreds of
orders of magnitude while the products stay tame.  Everything is therefore
carried as ln |value| plus a sign.  Two quick demonstrations:

* the Wronskian z (I K' - I' K) = -1, with each product formed from the
  logs of two Robin combinations as the energy code forms M_l, stays exact to
  ~1e-13 across 10 orders of magnitude in both order and argument;
* the exact rational Debye polynomials u_k drive the large-order branch, and
  the first log-derived polynomial pair is printed for reference.
"""

import math

from casimir_spheres import (debye_m, debye_u, log_bessel_i, log_bessel_k,
                             robin_combination)

print(__doc__)

print("ln I_nu(z) / ln K_nu(z) across extreme scales:")
for nu, z in ((0.5, 1.0), (50.0, 5.0), (500.0, 350.0), (10000.0, 10.0)):
    print(f"  nu={nu:>8}, z={z:>6}:  ln I = {log_bessel_i(nu, z):+18.9f}   "
          f"ln K = {log_bessel_k(nu, z):+18.9f}")

print("\nWronskian residual |z (I K' - I' K) + 1|:")
for nu in (0.5, 5.0, 50.5, 500.0):
    row = []
    for z in (0.01, 1.0, 100.0):
        i0 = robin_combination(1.0, 0.0, nu, z, "I")
        k0 = robin_combination(1.0, 0.0, nu, z, "K")
        zi = robin_combination(0.0, 1.0, nu, z, "I")
        zk = robin_combination(0.0, 1.0, nu, z, "K")
        w = (i0.sign * zk.sign * math.exp(i0.log + zk.log)
             - zi.sign * k0.sign * math.exp(zi.log + k0.log))
        row.append(f"{abs(w + 1.0):.1e}")
    print(f"  nu={nu:>6}: " + "  ".join(row))

print("\nExact Debye recursion output (rational coefficients, power of t):")
print("  u_1      =", dict(enumerate(debye_u(1).coefficients)))
print("  u_2      =", dict(enumerate(debye_u(2).coefficients)))
print("  D_1      =", dict(enumerate(debye_u(1).coefficients)))
print("  M_1(1/2) =", dict(enumerate(debye_m(0.5).coefficients)))

print("\nUniform asymptotics vs ascending series at nu = 300:")
from casimir_spheres.bessel import _log_i_debye, _log_i_series
for zb in (0.02, 0.05, 0.1):
    z = 300.0 * zb
    a, b = _log_i_debye(300.0, z), _log_i_series(300.0, z)
    print(f"  z/nu = {zb}: branches differ by {abs(a - b):.2e}")
