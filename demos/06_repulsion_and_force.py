"""Attraction vs repulsion, and the force between the spheres.

Like boundary conditions attract; a conducting sphere inside a permeable one
(or vice versa) repels.  The force is the negative separation derivative of
the energy at fixed inner radius, summed as the outer-radius derivative of
each angular term.  The mixed configuration with the conducting sphere inside
repels more strongly than the reverse, and the proximity-force approximation
underestimates every magnitude.
"""

from casimir_spheres import (BoundaryCondition, BoundaryPair, Geometry,
                             TruncationPolicy, force, pfa_energy, zero_T_energy)

print(__doc__)

PC = BoundaryCondition.PERFECTLY_CONDUCTING
IP = BoundaryCondition.INFINITELY_PERMEABLE
policy = TruncationPolicy(rel_tol=1e-6)

print("zero-temperature energy and force at eps = 0.3 (a1 = 1):")
print("  D  pair    E_exact        force        character")
for dim in (3, 4):
    for name, bp in (("pc,pc", BoundaryPair(PC, PC)), ("ip,ip", BoundaryPair(IP, IP)),
                     ("pc,ip", BoundaryPair(PC, IP)), ("ip,pc", BoundaryPair(IP, PC))):
        g = Geometry.from_eps(0.3, dim)
        e = zero_T_energy(g, bp, None, policy).value
        f = force(g, bp, 0.0, policy)
        kind = "attractive" if f < 0 else "repulsive"
        print(f"  {dim}  {name}  {e:+.6e}  {f:+.6e}  {kind}")

print("\nmixed-orientation asymmetry at small gaps (D = 4, eps = 0.1):")
g = Geometry.from_eps(0.1, 4)
for name, bp in (("conducting inner", BoundaryPair(PC, IP)),
                 ("permeable inner", BoundaryPair(IP, PC))):
    e = zero_T_energy(g, bp, None, policy).value
    print(f"  {name}: E = {e:+.6e}   (PFA {pfa_energy(g, bp, 'zeroT'):+.6e})")
