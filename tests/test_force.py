"""The analytic force against a Richardson finite difference of the energy."""

from casimir_spheres import BoundaryPair, Geometry, TruncationPolicy, exact, force

ORACLE_DIMS = (3, 5)
ORACLE_PAIRS = ("pc,pc", "pc,ip", "ip,pc", "ip,ip")
ORACLE_TEMPS = (0.0, 0.5, 10.0)
ORACLE_EPS = (0.05, 0.3, 1.0)


def richardson_force(geometry, bc_pair, T, policy):
    """-dE/dd by central differences at steps h and h/2 and one Richardson step.

    h = 1e-4 d leaves a truncation error of order h^4; energy errors of
    rel_tol |E| become about rel_tol / (1e-4 D) relative in the force.
    """
    d0 = geometry.d
    h = max(1e-4 * d0, 1e-6 * geometry.a1)

    def energy_at(d):
        return exact._energy(geometry.widened(d), bc_pair, None, T, policy).value

    d_coarse = (energy_at(d0 + h) - energy_at(d0 - h)) / (2.0 * h)
    d_fine = (energy_at(d0 + 0.5 * h) - energy_at(d0 - 0.5 * h)) / h
    return -(4.0 * d_fine - d_coarse) / 3.0


# (D, pair, T, eps) -> richardson_force at rel_tol 1e-11, made by the code in
# test_force_matches_richardson_oracle
RICHARDSON = {(3, 'ip,ip', 0.0, 0.05): -85360.49465522706,
 (3, 'ip,ip', 0.0, 0.3): -74.4585701539889,
 (3, 'ip,ip', 0.0, 1.0): -0.7065734585674314,
 (3, 'ip,ip', 0.5, 0.05): -85360.35382990872,
 (3, 'ip,ip', 0.5, 0.3): -74.37076173731286,
 (3, 'ip,ip', 0.5, 1.0): -0.7697316597055082,
 (3, 'ip,ip', 10.0, 0.05): -106876.08651558841,
 (3, 'ip,ip', 10.0, 0.3): -488.7896583420727,
 (3, 'ip,ip', 10.0, 1.0): -13.631542057865135,
 (3, 'ip,pc', 0.0, 0.05): 74738.60303371861,
 (3, 'ip,pc', 0.0, 0.3): 66.36321444647798,
 (3, 'ip,pc', 0.0, 1.0): 0.6859535184422505,
 (3, 'ip,pc', 0.5, 0.05): 74738.54557405646,
 (3, 'ip,pc', 0.5, 0.3): 66.24096290050018,
 (3, 'ip,pc', 0.5, 1.0): 0.7450799930742528,
 (3, 'ip,pc', 10.0, 0.05): 82438.76762803658,
 (3, 'ip,pc', 10.0, 0.3): 387.6342013975254,
 (3, 'ip,pc', 10.0, 1.0): 13.138368153701544,
 (3, 'pc,ip', 0.0, 0.05): 74738.60303371861,
 (3, 'pc,ip', 0.0, 0.3): 66.36321444647798,
 (3, 'pc,ip', 0.0, 1.0): 0.6859535184422505,
 (3, 'pc,ip', 0.5, 0.05): 74738.54557405646,
 (3, 'pc,ip', 0.5, 0.3): 66.24096290050018,
 (3, 'pc,ip', 0.5, 1.0): 0.7450799930742528,
 (3, 'pc,ip', 10.0, 0.05): 82438.76762803658,
 (3, 'pc,ip', 10.0, 0.3): 387.6342013975254,
 (3, 'pc,ip', 10.0, 1.0): 13.138368153701544,
 (3, 'pc,pc', 0.0, 0.05): -85360.49465522706,
 (3, 'pc,pc', 0.0, 0.3): -74.4585701539889,
 (3, 'pc,pc', 0.0, 1.0): -0.7065734585674314,
 (3, 'pc,pc', 0.5, 0.05): -85360.35382990872,
 (3, 'pc,pc', 0.5, 0.3): -74.37076173731286,
 (3, 'pc,pc', 0.5, 1.0): -0.7697316597055082,
 (3, 'pc,pc', 10.0, 0.05): -106876.08651558841,
 (3, 'pc,pc', 10.0, 0.3): -488.7896583420727,
 (3, 'pc,pc', 10.0, 1.0): -13.631542057865135,
 (5, 'ip,ip', 0.0, 0.05): -37311026.25451357,
 (5, 'ip,ip', 0.0, 0.3): -1094.8771005513906,
 (5, 'ip,ip', 0.0, 1.0): -1.3151743763233543,
 (5, 'ip,ip', 0.5, 0.05): -37311026.13757051,
 (5, 'ip,ip', 0.5, 0.3): -1094.798130619444,
 (5, 'ip,ip', 0.5, 1.0): -1.3897839343809022,
 (5, 'ip,ip', 10.0, 0.05): -41504839.44174287,
 (5, 'ip,ip', 10.0, 0.3): -6119.212515258077,
 (5, 'ip,ip', 10.0, 1.0): -22.931625055822025,
 (5, 'ip,pc', 0.0, 0.05): 35088856.97504541,
 (5, 'ip,pc', 0.0, 0.3): 912.566446298552,
 (5, 'ip,pc', 0.0, 1.0): 0.9085653725859899,
 (5, 'ip,pc', 0.5, 0.05): 35088856.96338254,
 (5, 'ip,pc', 0.5, 0.3): 912.5206590282411,
 (5, 'ip,pc', 0.5, 1.0): 0.9402022720603198,
 (5, 'ip,pc', 10.0, 0.05): 38061335.65191991,
 (5, 'ip,pc', 10.0, 0.3): 4862.270466975674,
 (5, 'ip,pc', 10.0, 1.0): 14.991196967949852,
 (5, 'pc,ip', 0.0, 0.05): 37261487.60268306,
 (5, 'pc,ip', 0.0, 0.3): 1260.9417543973534,
 (5, 'pc,ip', 0.0, 1.0): 2.0490257995388803,
 (5, 'pc,ip', 0.5, 0.05): 37261487.511081666,
 (5, 'pc,ip', 0.5, 0.3): 1260.6962733079913,
 (5, 'pc,ip', 0.5, 1.0): 2.2098683706376723,
 (5, 'pc,ip', 10.0, 0.05): 40566510.920758165,
 (5, 'pc,ip', 10.0, 0.3): 7010.090654033418,
 (5, 'pc,ip', 10.0, 1.0): 37.43564125190465,
 (5, 'pc,pc', 0.0, 0.05): -37317527.42244858,
 (5, 'pc,pc', 0.0, 0.3): -1100.4520362819883,
 (5, 'pc,pc', 0.0, 1.0): -1.3587185718480501,
 (5, 'pc,pc', 0.5, 0.05): -37317527.27950221,
 (5, 'pc,pc', 0.5, 0.3): -1100.3399583668422,
 (5, 'pc,pc', 0.5, 1.0): -1.4095877871356244,
 (5, 'pc,pc', 10.0, 0.05): -41507156.161715545,
 (5, 'pc,pc', 10.0, 0.3): -6119.212515257761,
 (5, 'pc,pc', 10.0, 1.0): -22.931625055822025}
# The oracle's own error, rel_tol / (1e-4 D) <= 3.4e-8 relative, with margin.
ORACLE_REL_ERR = 1e-7


def test_force_matches_richardson_oracle():
    """force within 1e-6 relative of the frozen Richardson oracle, and its error
    estimate covering the difference, on the grid D, pair, T, eps above.

    Regenerate the table from tests/ with PYTHONPATH=../src:. and

        import itertools
        from pprint import pprint

        from casimir_spheres import BoundaryPair, Geometry, TruncationPolicy
        from test_force import (ORACLE_DIMS, ORACLE_EPS, ORACLE_PAIRS, ORACLE_TEMPS,
                                richardson_force)

        oracle = TruncationPolicy(rel_tol=1e-11)
        pprint({(dim, bc, temp, eps): richardson_force(Geometry.from_eps(eps, dim),
                                                       BoundaryPair.from_string(bc), temp, oracle)
                for dim, bc, temp, eps in itertools.product(ORACLE_DIMS, ORACLE_PAIRS,
                                                            ORACLE_TEMPS, ORACLE_EPS)})
    """
    policy = TruncationPolicy(rel_tol=1e-7)
    misses = []
    for (dim, bc, temp, eps), want in RICHARDSON.items():
        res = exact._force(Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc), temp,
                           policy)
        miss = abs(res.value - want)
        if not (miss <= 1e-6 * abs(want)
                and miss <= res.error_estimate + ORACLE_REL_ERR * abs(want)):
            misses.append(f"D={dim} {bc} T={temp} eps={eps}: {res.value!r} "
                          f"+- {res.error_estimate:.2e} vs {want!r}")
    assert not misses, "\n".join(misses)


def test_force_is_the_value_of_its_result_and_matches_a_live_oracle():
    g, pair = Geometry.from_eps(1.0, 3), BoundaryPair.from_string("pc,ip")
    policy = TruncationPolicy(rel_tol=1e-9)
    for temp in (0.0, 0.5):
        value = force(g, pair, temp, policy)
        assert type(value) is float and value == exact._force(g, pair, temp, policy).value
        want = richardson_force(g, pair, temp, TruncationPolicy(rel_tol=1e-11))
        assert abs(value - want) <= 1e-6 * abs(want)
