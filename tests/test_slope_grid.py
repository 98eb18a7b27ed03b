"""The a2-derivative layers of the force kernel against frozen mpmath values.

Two tables at 40 digits: d ln|alpha B + beta z B'|/dz of bessel._robin_terms
(below nu = 50) and d ln|M|/du2 of _Kernel.log_m with ``slope`` in ratio form
(nu >= 50), and its ln|M| against that of log_m without the slope on both sides
of nu = 50.
"""

import itertools

import numpy as np

from casimir_spheres import BoundaryPair, Channel, Geometry, bessel, exact, robin_combination

# Robin pairs with beta = 0 and the library's beta = 1 ratios, each at the
# orders where |alpha/beta| <= nu, on both sides of the z = 30 series seam.
ROBIN_PAIRS = ((1.0, 0.0), (0.5, 1.0), (-0.5, 1.0), (1.5, 1.0))
ROBIN_NU = (0.5, 8.5, 49.5)
ROBIN_Z = (0.05, 1.0, 10.0, 29.0, 31.0, 60.0, 150.0)
# Ratio-form grid: every pair and channel at D = 3, eps = 0.1, three orders
# and five z/nu from 0.01 to 100.
M_DIM, M_EPS = 3, 0.1
M_PAIRS = ("pc,pc", "pc,ip", "ip,pc", "ip,ip")
M_NU = (50.5, 100.5, 1000.5)
M_ZB = (0.01, 0.1, 1.0, 10.0, 100.0)

# (alpha, beta, nu, kind) -> d ln|alpha B_nu + beta z B_nu'|/dz at each z of ROBIN_Z, dps 40
ROBIN_SLOPES = {(-0.5, 1.0, 0.5, 'I'): (50.00999928579364,
                         2.694528049465325,
                         1.061111106021843,
                         1.0184729064039408,
                         1.0172043010752687,
                         1.0086158192090395,
                         1.0033780760626398),
 (-0.5, 1.0, 0.5, 'K'): (-10.047619047619047,
                         -1.0,
                         -0.9590909090909091,
                         -0.9839080459770115,
                         -0.9848790322580645,
                         -0.9919398907103825,
                         -0.996710816777042),
 (-0.5, 1.0, 8.5, 'I'): (170.0032894381314,
                         8.56550730156808,
                         1.3437519240686775,
                         1.0588249854806437,
                         1.05269745848081,
                         1.0183903334642086,
                         1.0049658419741736),
 (-0.5, 1.0, 8.5, 'K'): (-170.00259258256796,
                         -8.551770583846238,
                         -1.2856162594755973,
                         -1.0270101009049895,
                         -1.0226431342820597,
                         -1.0020421650513032,
                         -0.9983198583079967),
 (-0.5, 1.0, 49.5, 'I'): (990.0005152554683,
                          49.5103040012909,
                          5.051963541882428,
                          1.9826956596672538,
                          1.8886435842285616,
                          1.3014142910025643,
                          1.056079419041024),
 (-0.5, 1.0, 49.5, 'K'): (-990.0004948452428,
                          -49.50989596316478,
                          -5.048041787599496,
                          -1.9738845555027342,
                          -1.8795561907306038,
                          -1.2914968927140773,
                          -1.0500670665158218),
 (0.5, 1.0, 0.5, 'I'): (10.04995837495788,
                        1.2615941559557649,
                        1.0499999958776927,
                        1.0172413793103448,
                        1.0161290322580645,
                        1.0083333333333333,
                        1.0033333333333334),
 (0.5, 1.0, 0.5, 'K'): (9.0,
                        -0.5,
                        -0.95,
                        -0.9827586206896551,
                        -0.9838709677419355,
                        -0.9916666666666667,
                        -0.9966666666666667),
 (0.5, 1.0, 8.5, 'I'): (170.0032163419031,
                        8.564070457550498,
                        1.3392789573550248,
                        1.057743843317111,
                        1.0517382119752952,
                        1.018116344640047,
                        1.0049213155489614),
 (0.5, 1.0, 8.5, 'K'): (-170.00249999599288,
                        -8.549965763571445,
                        -1.2812508649508423,
                        -1.0259875598240682,
                        -1.0217338923777688,
                        -1.0017767286061472,
                        -0.9982759169692209),
 (0.5, 1.0, 49.5, 'I'): (990.0005148513468,
                         49.51029592363516,
                         5.051887280910618,
                         1.9825433750286319,
                         1.8884891513035462,
                         1.3012864883486468,
                         1.0560411632654796),
 (0.5, 1.0, 49.5, 'K'): (-990.0004944244565,
                         -49.50988755275686,
                         -5.047962691776444,
                         -1.9737296536686062,
                         -1.8793994325320882,
                         -1.2913697128595514,
                         -1.0500291980144791),
 (1.0, 0.0, 0.5, 'I'): (10.016663889550099,
                        0.8130352854993314,
                        0.9500000041223072,
                        0.9827586206896551,
                        0.9838709677419355,
                        0.9916666666666667,
                        0.9966666666666667),
 (1.0, 0.0, 0.5, 'K'): (-11.0,
                        -1.5,
                        -1.05,
                        -1.0172413793103448,
                        -1.0161290322580645,
                        -1.0083333333333333,
                        -1.0033333333333334),
 (1.0, 0.0, 8.5, 'I'): (170.00263156245896,
                        8.55250027070995,
                        1.2840790138455418,
                        1.0261125807083584,
                        1.0218319836813936,
                        1.0017846708110076,
                        0.998276128654026),
 (1.0, 0.0, 8.5, 'K'): (-170.00333329059958,
                        -8.566328857711783,
                        -1.3420179398820618,
                        -1.057868537459764,
                        -1.0518360902712367,
                        -1.0181242842734024,
                        -1.0049215272292715),
 (1.0, 0.0, 49.5, 'I'): (990.0004950493859,
                         49.509900038534724,
                         5.048075699810172,
                         1.9739022625588105,
                         1.8795680846566014,
                         1.2914473656322463,
                         1.0500348067709953),
 (1.0, 0.0, 49.5, 'K'): (-990.0005154637777,
                         -49.51030815984879,
                         -5.051998159212544,
                         -1.9827137585202943,
                         -1.8886557420553056,
                         -1.3013637378386327,
                         -1.0560467685359587),
 (1.5, 1.0, 8.5, 'I'): (170.0031578647281,
                        8.562919481521751,
                        1.3354298009991654,
                        1.0567318781701245,
                        1.0508367918274426,
                        1.0178512505345785,
                        1.00487737793633),
 (1.5, 1.0, 8.5, 'K'): (-170.00238095674044,
                        -8.54765012068674,
                        -1.276153032703684,
                        -1.0248949293259824,
                        -1.0207661913306625,
                        -1.001502383022784,
                        -0.998231386755342),
 (1.5, 1.0, 49.5, 'I'): (990.0005144630733,
                         49.51028816268875,
                         5.051813954138932,
                         1.9823962751510638,
                         1.8883398862447827,
                         1.301161921743944,
                         1.0560033886788585),
 (1.5, 1.0, 49.5, 'K'): (-990.0004939861376,
                         -49.509878791990516,
                         -5.047880368868418,
                         -1.973569219497588,
                         -1.8792371787054272,
                         -1.291239211594084,
                         -1.0499908468259698)}
# (pair, channel, nu) -> d ln|M|/du2 at u = nu * z/nu for each z/nu of M_ZB, dps 40
M_SLOPES = {('ip,ip', 'TE', 50.5): (-181.82917285667776,
                         -18.29140355125482,
                         -2.702784812176509,
                         -2.008246611537603,
                         -2.0000826348153344),
 ('ip,ip', 'TE', 100.5): (-181.82917930761764,
                          -18.291466258815603,
                          -2.702887054064533,
                          -2.0082472440266,
                          -2.000082640874098),
 ('ip,ip', 'TE', 1000.5): (-181.8291814634802,
                           -18.291487216266198,
                           -2.702921241941895,
                           -2.0082474555147094,
                           -2.000082642899986),
 ('ip,ip', 'TM', 50.5): (-181.82918579900868,
                         -18.291529172807508,
                         -2.70296302632766,
                         -2.008246690241581,
                         -2.0000826348233667),
 ('ip,ip', 'TM', 100.5): (-181.82918257427923,
                          -18.291497967017477,
                          -2.702932052668207,
                          -2.0082472639000573,
                          -2.0000826408761263),
 ('ip,ip', 'TM', 1000.5): (-181.8291814964373,
                           -18.29148753617168,
                           -2.702921695987053,
                           -2.0082474557152397,
                           -2.0000826429000065),
 ('ip,pc', 'TE', 50.5): (-181.82918579900868,
                         -18.291529172807508,
                         -2.70296302632766,
                         -2.008246690241581,
                         -2.0000826348233667),
 ('ip,pc', 'TE', 100.5): (-181.82918257427923,
                          -18.291497967017477,
                          -2.702932052668207,
                          -2.0082472639000573,
                          -2.0000826408761263),
 ('ip,pc', 'TE', 1000.5): (-181.8291814964373,
                           -18.29148753617168,
                           -2.702921695987053,
                           -2.0082474557152397,
                           -2.0000826429000065),
 ('ip,pc', 'TM', 50.5): (-181.82917285667776,
                         -18.29140355125482,
                         -2.702784812176509,
                         -2.008246611537603,
                         -2.0000826348153344),
 ('ip,pc', 'TM', 100.5): (-181.82917930761764,
                          -18.291466258815603,
                          -2.702887054064533,
                          -2.0082472440266,
                          -2.000082640874098),
 ('ip,pc', 'TM', 1000.5): (-181.8291814634802,
                           -18.291487216266198,
                           -2.702921241941895,
                           -2.0082474555147094,
                           -2.000082642899986),
 ('pc,ip', 'TE', 50.5): (-181.82917285667776,
                         -18.29140355125482,
                         -2.702784812176509,
                         -2.008246611537603,
                         -2.0000826348153344),
 ('pc,ip', 'TE', 100.5): (-181.82917930761764,
                          -18.291466258815603,
                          -2.702887054064533,
                          -2.0082472440266,
                          -2.000082640874098),
 ('pc,ip', 'TE', 1000.5): (-181.8291814634802,
                           -18.291487216266198,
                           -2.702921241941895,
                           -2.0082474555147094,
                           -2.000082642899986),
 ('pc,ip', 'TM', 50.5): (-181.82918579900868,
                         -18.291529172807508,
                         -2.70296302632766,
                         -2.008246690241581,
                         -2.0000826348233667),
 ('pc,ip', 'TM', 100.5): (-181.82918257427923,
                          -18.291497967017477,
                          -2.702932052668207,
                          -2.0082472639000573,
                          -2.0000826408761263),
 ('pc,ip', 'TM', 1000.5): (-181.8291814964373,
                           -18.29148753617168,
                           -2.702921695987053,
                           -2.0082474557152397,
                           -2.0000826429000065),
 ('pc,pc', 'TE', 50.5): (-181.82918579900868,
                         -18.291529172807508,
                         -2.70296302632766,
                         -2.008246690241581,
                         -2.0000826348233667),
 ('pc,pc', 'TE', 100.5): (-181.82918257427923,
                          -18.291497967017477,
                          -2.702932052668207,
                          -2.0082472639000573,
                          -2.0000826408761263),
 ('pc,pc', 'TE', 1000.5): (-181.8291814964373,
                           -18.29148753617168,
                           -2.702921695987053,
                           -2.0082474557152397,
                           -2.0000826429000065),
 ('pc,pc', 'TM', 50.5): (-181.82917285667776,
                         -18.29140355125482,
                         -2.702784812176509,
                         -2.008246611537603,
                         -2.0000826348153344),
 ('pc,pc', 'TM', 100.5): (-181.82917930761764,
                          -18.291466258815603,
                          -2.702887054064533,
                          -2.0082472440266,
                          -2.000082640874098),
 ('pc,pc', 'TM', 1000.5): (-181.8291814634802,
                           -18.291487216266198,
                           -2.702921241941895,
                           -2.0082474555147094,
                           -2.000082642899986)}


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_robin_slope_dense_grid():
    """bessel._robin_terms' z R'/R, divided by z, within 1e-12 max(1, |x|) of mpmath.

    Its ln|R| = ln B + ln|c + t| must also be robin_combination's to the bit,
    and one call on two Robin pairs, one per half of a stacked z, must give the
    two single-pair calls' values to the bit.  The derivative in
    the table is mpmath's numerical one (mp.diff) of ln|R|, with B' from
    DLMF 10.29.2 (K' = -K_(nu+1) + nu K/z), independent of the Bessel
    equation and of the K_(nu-1) identity the code uses.  Regenerate both
    tables from tests/ with PYTHONPATH=../src:. and

        from functools import lru_cache
        from pprint import pprint

        import mpmath as mp
        from casimir_spheres import BoundaryPair, Channel, Geometry
        from casimir_spheres.modes import bc_coefficients
        from test_slope_grid import (M_DIM, M_EPS, M_NU, M_PAIRS, M_ZB, ROBIN_NU, ROBIN_PAIRS,
                                     ROBIN_Z)

        mp.mp.dps = 40


        @lru_cache(maxsize=None)
        def bessel(kind, nu, z):  # K by the terminating sum for half-integer nu (DLMF 10.49.12)
            if kind == "I":
                return mp.besseli(nu, z)
            n = int(nu - mp.mpf(1) / 2)
            return mp.sqrt(mp.pi / (2 * z)) * mp.exp(-z) * mp.fsum(
                mp.factorial(n + k) / (mp.factorial(k) * mp.factorial(n - k) * (2 * z) ** k)
                for k in range(n + 1))


        def log_robin(alpha, beta, nu, z, kind):  # ln|alpha*B + beta*z*B'|, B' by DLMF 10.29.2
            b, s = bessel(kind, nu, z), 1 if kind == "I" else -1
            return mp.log(abs(alpha * b + beta * (s * z * bessel(kind, nu + 1, z) + nu * b)))


        def slope(alpha, beta, nu, z, kind):  # d/dz ln|alpha*B + beta*z*B'|, numerically
            nu = mp.mpf(nu)
            return mp.diff(lambda x: log_robin(alpha, beta, nu, x, kind), mp.mpf(z))


        def m_slope(bc, ch, nu, zb):  # d ln|M| / du2 at u = nu * zb, u2 = (a2/a1) u
            g, pair = Geometry.from_eps(M_EPS, M_DIM), BoundaryPair.from_string(bc)
            a2, b2 = map(float, bc_coefficients(Channel(ch), pair.outer, M_DIM))
            u2 = mp.mpf(g.a2) / g.a1 * nu * mp.mpf(zb)
            return float(slope(a2, b2, nu, u2, "K") - slope(a2, b2, nu, u2, "I"))


        pprint({(alpha, beta, nu, kind): tuple(float(slope(alpha, beta, nu, z, kind))
                                               for z in ROBIN_Z)
                for alpha, beta in ROBIN_PAIRS for nu in ROBIN_NU for kind in ("I", "K")
                if beta == 0.0 or abs(alpha / beta) <= nu}, width=96)
        pprint({(bc, ch, nu): tuple(m_slope(bc, ch, nu, zb) for zb in M_ZB)
                for bc in M_PAIRS for ch in ("TE", "TM") for nu in M_NU}, width=96)
    """
    misses, z = [], np.array(ROBIN_Z)
    for (alpha, beta, nu, kind), want in ROBIN_SLOPES.items():
        lb0, c, t, z_slope = bessel._robin_terms(alpha, beta, nu, z, kind, slope=True)
        log = lb0 + np.log(np.abs(c + t))
        plain = robin_combination(alpha, beta, nu, z, kind)
        for i, x in enumerate(want):
            label = f"alpha={alpha} beta={beta} nu={nu} {kind} z={z[i]}"
            if not _close(z_slope[i] / z[i], x):
                misses.append(f"{label}: {z_slope[i] / z[i]!r} vs {x!r}")
            if log[i] != plain.log[i]:
                misses.append(f"{label}: ln|R| {log[i]!r} vs {plain.log[i]!r}")
    for nu, kind in itertools.product(ROBIN_NU, ("I", "K")):
        pairs = [(a, b) for a, b in ROBIN_PAIRS if b == 0.0 or abs(a / b) <= nu]
        for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
            alpha, beta = np.repeat([[a1, b1], [a2, b2]], z.size, axis=0).T
            stacked = bessel._robin_terms(alpha, beta, nu, np.concatenate((z, z)), kind, True)
            single = (bessel._robin_terms(a, b, nu, z, kind, True) for a, b in ((a1, b1), (a2, b2)))
            single = [np.concatenate([np.broadcast_to(x, z.shape) for x in halves])
                      for halves in zip(*single)]
            if not all(np.array_equal(x, y) for x, y in zip(stacked, single)):
                misses.append(f"nu={nu} {kind} ({a1}, {b1}) + ({a2}, {b2}): stacked "
                              f"{stacked!r} vs single {single!r}")
    assert not misses, "\n".join(misses)


def test_ratio_form_m_slope_dense_grid():
    """_Kernel.log_m's u2 d ln|M|/du2 (``slope``), divided by u2, within 1e-12 max(1, |x|) of
    mpmath (table made by the code in test_robin_slope_dense_grid)."""
    g = Geometry.from_eps(M_EPS, M_DIM)
    misses = []
    for (bc, ch, nu), want in M_SLOPES.items():
        kern = exact._Kernel(g, BoundaryPair.from_string(bc), Channel(ch))
        u = nu * np.array(M_ZB)
        u2 = kern.r21 * u
        _, slope = kern.log_m(nu, u, slope=True)
        for i, x in enumerate(want):
            if not _close(slope[i] / u2[i], x):
                misses.append(f"{bc} {ch} nu={nu} z/nu={M_ZB[i]}: "
                              f"{slope[i] / u2[i]!r} vs {x!r}")
    assert not misses, "\n".join(misses)


def test_log_m_slope_sees_log_m():
    """log_m's ln|M| with ``slope`` is that without to the bit, for a float order and
    a column of orders at nu >= 50 and below, where both come from
    _Kernel._robin_form, at D = 3 and 5."""
    misses, column = [], np.array([[50.5], [100.5]])
    for dim, bc, ch in itertools.product((3, 5), M_PAIRS, (Channel.TE, Channel.TM)):
        kern = exact._Kernel(Geometry.from_eps(M_EPS, dim), BoundaryPair.from_string(bc), ch)
        for nu in (8.5, 49.5, 50.5, 100.5, column):
            u = nu * np.array(M_ZB)
            log = kern.log_m(nu, u)
            slope_log, _ = kern.log_m(nu, u, slope=True)
            if not np.array_equal(log, slope_log):
                misses.append(f"D={dim} {bc} {ch.value} nu={np.ravel(nu)}: "
                              f"{slope_log!r} vs {log!r}")
    assert not misses, "\n".join(misses)
