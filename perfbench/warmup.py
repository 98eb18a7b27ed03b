"""Set-up: import casimir_spheres and fill its lazy caches with one small call.

Run as a script, this is the set-up the benchmark times in a fresh
interpreter (``setup_s``); the benchmark process runs ``warm_up`` itself
before it measures anything.
"""

import casimir_spheres as cs

# One high-temperature energy per dimension the workloads use.  Its angular
# sums pass nu = 50, so it builds the Debye u_k/v_k tables, and it builds
# the TE and TM degeneracy polynomials of each dimension.
WARM_UP_DIMS = (3, 5)


def warm_up() -> None:
    policy = cs.TruncationPolicy(rel_tol=1e-6)
    bc = cs.BoundaryPair.from_string("pc,ip")
    for dim in WARM_UP_DIMS:
        cs.free_energy(cs.Geometry.from_eps(0.1, dim), bc, None, 10.0, policy)


if __name__ == "__main__":
    warm_up()
