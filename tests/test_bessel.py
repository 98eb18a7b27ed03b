"""Log-domain Bessel evaluation against frozen arbitrary-precision oracles.

Reference values computed once with mpmath at 40 significant digits.
"""

import math

import pytest

from casimir_spheres import (BoundaryPair, Channel, Geometry, SignedLog, log_bessel_i,
                             log_bessel_k, m_ratio, robin_combination)
from casimir_spheres.bessel import _log_i_debye, _log_i_series, _log_k_debye

# (nu, z) -> ln I_nu(z), ln K_nu(z); mpmath besseli/besselk, dps=40
ORACLE = {
    (0.5, 1.0): (-0.06435199107353179875298, -0.7742086473552725676369),
    (500.0, 350.0): (28.96312264202590645202, None),
    (1000.0, 1200.0): (None, -807.0149091626050251069),
    (5000.0, 2500.0): (-1633.240760616078653059, None),
    (10000.0, 10.0): (-66014.54621272363708681, 66004.64272467110120376),
    (10000.0, 30000.0): (None, -28353.23012771181186641),
}


def test_half_integer_closed_forms():
    assert log_bessel_i(0.5, 1.0) == pytest.approx(
        math.log(math.sqrt(2.0 / math.pi) * math.sinh(1.0)), abs=1e-12)
    assert log_bessel_k(0.5, 1.0) == pytest.approx(
        math.log(math.sqrt(math.pi / 2.0)) - 1.0, abs=1e-12)


def test_small_z_limits():
    # I_nu(z) ~ (z/2)^nu / Gamma(nu+1), K_nu(z) ~ (z/2)^-nu Gamma(nu)/2
    nu, z = 1.5, 1e-8
    assert log_bessel_i(nu, z) == pytest.approx(
        nu * math.log(z / 2) - math.lgamma(nu + 1), abs=1e-12)
    assert log_bessel_k(nu, z) == pytest.approx(
        -nu * math.log(z / 2) + math.log(math.gamma(nu) / 2), abs=1e-12)


@pytest.mark.parametrize("nu,z", sorted(ORACLE))
def test_oracle_values(nu, z):
    li, lk = ORACLE[(nu, z)]
    if li is not None:
        assert log_bessel_i(nu, z) == pytest.approx(li, abs=1e-10 * max(1, abs(li)))
    if lk is not None:
        assert log_bessel_k(nu, z) == pytest.approx(lk, abs=1e-10 * max(1, abs(lk)))


def test_domain_errors():
    for fn in (log_bessel_i, log_bessel_k):
        with pytest.raises(ValueError):
            fn(-1.0, 1.0)
        with pytest.raises(ValueError):
            fn(1.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.0, -2.0)
        with pytest.raises(ValueError):
            fn(math.inf, 1.0)


@pytest.mark.parametrize("nu", [0.5, 1.5, 5.0, 50.5, 500.0])
def test_monotonicity(nu):
    zs = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
    li = [log_bessel_i(nu, z) for z in zs]
    lk = [log_bessel_k(nu, z) for z in zs]
    assert all(a < b for a, b in zip(li, li[1:]))
    assert all(a > b for a, b in zip(lk, lk[1:]))


def test_branch_overlap_series_vs_debye():
    worst = 0.0
    for nu in (60.0, 120.0, 400.0, 2000.0):
        for z in (0.1 * nu, 0.25 * nu, min(30.0, 0.9 * nu)):
            worst = max(worst, abs(_log_i_series(nu, z) - _log_i_debye(nu, z)))
    assert worst <= 1e-9


def test_branch_overlap_scipy_vs_debye():
    from scipy import special as sp
    worst = 0.0
    for nu in (60.0, 100.0, 250.0):
        for zb in (0.8, 1.0, 2.0, 10.0, 100.0):
            z = nu * zb
            worst = max(worst, abs(math.log(sp.ive(nu, z)) + z - _log_i_debye(nu, z)))
            worst = max(worst, abs(math.log(sp.kve(nu, z)) - z - _log_k_debye(nu, z)))
    assert worst <= 1e-9


def test_wronskian_grid():
    worst = 0.0
    for nu in (0.5, 1.5, 5.0, 50.5, 500.0):
        for z in (0.01, 1.0, 10.0, 100.0):
            i0 = robin_combination(1.0, 0.0, nu, z, "I")
            k0 = robin_combination(1.0, 0.0, nu, z, "K")
            zi = robin_combination(0.0, 1.0, nu, z, "I")
            zk = robin_combination(0.0, 1.0, nu, z, "K")
            w = (i0 * zk) + (-(zi * k0))  # z (I K' - I' K) = -1
            worst = max(worst, abs(w.value() + 1.0))
    assert worst <= 1e-11


def test_robin_reduces_to_plain_bessel():
    for nu, z in ((1.5, 2.0), (80.0, 10.0)):
        r = robin_combination(1.0, 0.0, nu, z, "I")
        assert r.sign == 1
        assert r.log == pytest.approx(log_bessel_i(nu, z), abs=1e-13)
        r2 = robin_combination(-2.0, 0.0, nu, z, "K")
        assert r2.sign == -1
        assert r2.log == pytest.approx(math.log(2.0) + log_bessel_k(nu, z), abs=1e-13)


def test_robin_k_derivative_always_negative():
    for nu in (0.5, 3.0, 75.0, 600.0):
        for z in (0.05, 1.0, 50.0):
            assert robin_combination(0.0, 1.0, nu, z, "K").sign == -1
            assert robin_combination(0.0, 1.0, nu, z, "I").sign == 1


def test_robin_small_z_sign():
    # alpha = (D-2)/2, beta = 1, nu = l + (D-2)/2: K combination ~ (alpha-nu) K
    for dim, l in ((3, 1), (5, 2), (4, 7)):
        alpha = (dim - 2) / 2.0
        nu = l + (dim - 2) / 2.0
        r = robin_combination(alpha, 1.0, nu, 1e-6, "K")
        assert r.sign == -1


def test_robin_small_z_oracle():
    # frozen mpmath value: alpha=1/2, beta=1, nu=3/2, z=1e-6, kind K
    r = robin_combination(0.5, 1.0, 1.5, 1e-6, "K")
    assert r.sign == -1
    assert r.log == pytest.approx(20.94905718959163858786, abs=1e-10)


def test_robin_derivative_identity_cross_check():
    # alpha I + beta z I' assembled from logs must match the direct \
    # finite-order identity at both small and large order
    for nu in (2.5, 30.0, 90.0):
        z = 3.0
        direct = (0.25 * math.exp(log_bessel_i(nu, z))
                  + 1.0 * (z * math.exp(log_bessel_i(nu + 1.0, z))
                           + nu * math.exp(log_bessel_i(nu, z))))
        r = robin_combination(0.25, 1.0, nu, z, "I")
        assert r.sign == 1
        assert r.value() == pytest.approx(direct, rel=1e-11)


def test_robin_cancellation_fallback():
    # alpha < 0 forces genuine cancellation of the I combination near its
    # zero; the arbitrary-precision fallback must keep the sign exact.
    nu, z = 2.0, 1.0
    # alpha I_2(1) + z I_2'(1) = 0 at alpha* = -z I'/I; probe both sides
    i = math.exp(log_bessel_i(nu, z))
    ip = math.exp(log_bessel_i(nu + 1, z)) + nu / z * i
    alpha_star = -z * ip / i
    for shift, want in ((1e-9, 1), (-1e-9, -1)):
        r = robin_combination(alpha_star + shift, 1.0, nu, z, "I")
        assert r.sign == want


def test_robin_rejects_degenerate_input():
    with pytest.raises(ValueError):
        robin_combination(0.0, 0.0, 1.0, 1.0, "I")
    with pytest.raises(ValueError):
        robin_combination(1.0, 0.0, 1.0, 1.0, "J")


def test_signedlog_type():
    assert isinstance(robin_combination(1.0, 0.0, 1.0, 1.0, "I"), SignedLog)


# Dense grid of the uniform (Debye, nu >= 50) branch; the values below are
# frozen mpmath results, made by the snippet in test_debye_dense_grid.
DENSE_NU = (50.5, 60.5, 100.5, 300.5)
DENSE_ZB = tuple(10.0 ** (k / 4.0 - 2.0) for k in range(17)) + (1.92,)
# (D, eps, bc, l); l = 49 at D = 3 is nu = 49.5, just below the seam.
M_CASES = ((3, 0.1, "pc,pc", 60), (3, 0.05, "pc,ip", 120), (16, 0.1, "pc,ip", 44),
           (3, 0.1, "ip,pc", 49))
M_ZB = (0.05, 0.5, 1.92, 5.0)
ROBIN_NU = (60.5, 300.5)
ROBIN_ALPHA = (0.5, 1.5, -0.5, 7.0)

LOG_IK_DENSE = {50.5: ((-219.94536438463035, 215.3301938506817),
                       (-190.8725508486793, 186.2572721809899),
                       (-161.79395036217932, 157.1783298996724),
                       (-132.6970580034592, 128.08035822863465),
                       (-103.54240212981784, 98.92230454871624),
                       (-74.20587856622342, 69.57518590863734),
                       (-44.30196038195829, 39.63917041250698),
                       (-12.674176466076037, 7.921645968757583),
                       (23.855489175746655, -28.817201662028673),
                       (72.7112463955723, -78.0393999340416),
                       (148.296134017154, -154.1101999609614),
                       (275.75316958115195, -282.11079422137647),
                       (498.44363501246704, -505.366315331023),
                       (892.291872161758, -899.7868025373344),
                       (1591.5447740284867, -1599.614271886313),
                       (2834.479966283952, -2843.1247687869554),
                       (5044.564991560576, -5053.785332256008),
                       (80.81925571523387, -86.20670913238986)),
                60.5: ((-263.01835040101105, 258.22250984425455),
                       (-228.1885337618633, 223.39258508421335),
                       (-193.35176193223373, 188.555471500274),
                       (-158.49300565367, 153.69563603630758),
                       (-123.56482607158128, 118.76405903770008),
                       (-88.41807711345129, 83.60671612684496),
                       (-52.58951503943526, 47.74605939699122),
                       (-14.69014977210845, 9.756956836758544),
                       (29.0935085285382, -34.235885470242536),
                       (87.65979355493198, -93.16861657531473),
                       (178.2601293851691, -184.25486602773907),
                       (331.0100803902281, -337.5483754331905),
                       (597.85367531252, -604.9570257983316),
                       (1069.7483586402407, -1077.4239590905452),
                       (1907.5240914028682, -1915.7742593042103),
                       (3396.6420375594175, -3405.4675100958666),
                       (6044.4246528716785, -6053.82566359735),
                       (97.37921696686169, -102.94734024518479)),
                100.5: ((-435.2032542035751, 429.8998992930666),
                        (-377.3454248155167, 372.04196180292945),
                        (-319.47596655168644, 314.1721618441128),
                        (-261.5697512487218, 256.2648675416137),
                        (-203.54746637669365, 198.23918582388885),
                        (-145.15978395212193, 139.84091109254337),
                        (-85.63255608741811, 80.28159246310335),
                        (-22.646658621892076, 17.205962445631588),
                        (50.15325757826924, -55.80314071749396),
                        (147.5618036024921, -153.5781401847578),
                        (298.2239028767172, -304.7261548632886),
                        (552.1454422460523, -559.1912521993269),
                        (995.6014992434139, -1003.2123642945786),
                        (1779.6819329618559, -1787.8650478419688),
                        (3171.5489694867247, -3180.306651772152),
                        (5645.397920012212, -5654.730906917995),
                        (10043.97088913441, -10053.87941422472),
                        (163.72688694372496, -169.80252433941567)),
                300.5: ((-1295.4088208831058, 1289.010175950517),
                        (-1122.4109263725695, 1116.0121733473968),
                        (-949.3780315855305, 942.9789368953095),
                        (-776.2345074492475, 769.8343338532931),
                        (-602.7416532785182, 596.338083124948),
                        (-428.1491729466492, 421.73501131704444),
                        (-250.1282474895059, 243.6819970594589),
                        (-61.70884893690941, 55.17286834900938),
                        (156.17351215129747, -162.91868119521308),
                        (447.7939579247206, -454.90558412956403),
                        (898.7647535390214, -906.3622960475545),
                        (1658.543939222958, -1666.6850394792557),
                        (2985.0620816125443, -2993.768236792602),
                        (5330.071129019755, -5339.34953396034),
                        (9492.394604467798, -9502.247576790616),
                        (16889.89853154086, -16900.326808476588),
                        (30042.423244177422, -30053.427059295307),
                        (496.18735455054474, -503.35828184917483))}

M_DENSE = {((3, 0.05, 'pc,ip', 120), 'TE'): ((-1, -11.782124159975448),
                                             (-1, -13.218195825212465),
                                             (-1, -25.95370508100152),
                                             (-1, -61.386923611722445)),
           ((3, 0.05, 'pc,ip', 120), 'TM'): ((-1, -11.765591775596903),
                                             (-1, -13.206497694148842),
                                             (-1, -25.952158880984435),
                                             (-1, -61.38680665099532)),
           ((3, 0.1, 'ip,pc', 49), 'TE'): ((-1, -9.428570706593266),
                                           (-1, -10.64177997410332),
                                           (-1, -21.220417662488092),
                                           (-1, -50.391716056655284)),
           ((3, 0.1, 'ip,pc', 49), 'TM'): ((-1, -9.468809194298672),
                                           (-1, -10.669824895829754),
                                           (-1, -21.22399240987296),
                                           (-1, -50.39198406694968)),
           ((3, 0.1, 'pc,pc', 60), 'TE'): ((1, -11.548406360690164),
                                           (1, -13.024178734042994),
                                           (1, -25.93850066348814),
                                           (1, -61.59009039200446)),
           ((3, 0.1, 'pc,pc', 60), 'TM'): ((1, -11.548393429310732),
                                           (1, -13.023470941503376),
                                           (1, -25.9381667567021),
                                           (1, -61.590060333193165)),
           ((16, 0.1, 'pc,ip', 44), 'TE'): ((-1, -9.498933234593268),
                                            (-1, -10.768202873043602),
                                            (-1, -21.75786280049612),
                                            (-1, -51.87340511403694)),
           ((16, 0.1, 'pc,ip', 44), 'TM'): ((-1, -9.459167327085293),
                                            (-1, -10.735927768903977),
                                            (-1, -21.745688557971125),
                                            (-1, -51.868750169952015))}

ROBIN_DENSE = {(60.5, -0.5, 'I'): ((1, -161.5160750055716),
                                   (1, -18.5202385069456),
                                   (1, 102.24734908028285),
                                   (1, 298.4140305747052)),
               (60.5, -0.5, 'K'): ((-1, 164.926751495347),
                                   (-1, 22.04124417233977),
                                   (-1, -98.06556668498648),
                                   (-1, -293.3754972490355)),
               (60.5, 0.5, 'I'): ((1, -161.49956599319205),
                                  (1, -18.505432669011917),
                                  (1, 102.25500739206839),
                                  (1, 298.4172772296522)),
               (60.5, 0.5, 'K'): ((-1, 164.91024316280766),
                                  (-1, 22.02648205070566),
                                  (-1, -98.07317913853485),
                                  (-1, -293.3787338001466)),
               (60.5, 1.5, 'I'): ((1, -161.4833251077816),
                                  (1, -18.490842849470393),
                                  (1, 102.2626074995787),
                                  (1, 298.42051337793316)),
               (60.5, 1.5, 'K'): ((-1, 164.89345772426833),
                                  (-1, 22.011498739532584),
                                  (-1, -98.08084998633998),
                                  (-1, -293.3819808605439)),
               (60.5, 7.0, 'I'): ((1, -161.3984294961844),
                                  (1, -18.414195310101803),
                                  (1, 102.3034059563446),
                                  (1, 298.4381273832995)),
               (60.5, 7.0, 'K'): ((-1, 164.7957356496024),
                                  (-1, 21.924819655971433),
                                  (-1, -98.12412487499466),
                                  (-1, -293.4000306400804)),
               (300.5, -0.5, 'I'): ((1, -805.8880551268137),
                                    (1, -95.85558660092377),
                                    (1, 502.66376051442114),
                                    (1, 1475.296731194886)),
               (300.5, -0.5, 'K'): ((-1, 810.9016013786269),
                                    (-1, 100.9794564250798),
                                    (-1, -496.8791294626197),
                                    (-1, -1468.6553828035137)),
               (300.5, 0.5, 'I'): ((1, -805.8847314749546),
                                   (1, -95.85260925130618),
                                   (1, 502.6652986640306),
                                   (1, 1475.2973840325035)),
               (300.5, 0.5, 'K'): ((-1, 810.8982777543157),
                                   (-1, 100.9764808473345),
                                   (-1, -496.88066575341935),
                                   (-1, -1468.6560352315835)),
               (300.5, 1.5, 'I'): ((1, -805.8814188331737),
                                   (1, -95.84964073999112),
                                   (1, 502.66683445136897),
                                   (1, 1475.2980364442021)),
               (300.5, 1.5, 'K'): ((-1, 810.8949430466789),
                                   (-1, 100.97349638909509),
                                   (-1, -496.88220440804037),
                                   (-1, -1468.6566880855935)),
               (300.5, 7.0, 'I'): ((1, -805.8633928953126),
                                   (1, -95.83346959755129),
                                   (1, 502.6752393782178),
                                   (1, 1475.3016171200081)),
               (300.5, 7.0, 'K'): ((-1, 810.8764006879953),
                                   (-1, 100.9569207298265),
                                   (-1, -496.8907095890342),
                                   (-1, -1468.6602864212562))}

def test_debye_dense_grid():
    """ln I, ln K, ln|M_l| and Robin logs within 1e-12 * max(1, |x|) of mpmath.

    Covers nu >= 50 at 17 log-spaced z/nu in [0.01, 100] plus z/nu = 1.92,
    where u_2(t) nearly vanishes; M_l at four l (one at nu = 49.5, below the
    seam) and the public Robin combinations.  Regenerate the tables from
    tests/ with PYTHONPATH=../src:. and

        from pprint import pprint

        import mpmath as mp
        from casimir_spheres import BoundaryPair, Channel, Geometry
        from casimir_spheres.modes import bc_coefficients
        from test_bessel import (DENSE_NU, DENSE_ZB, M_CASES, M_ZB, ROBIN_ALPHA,
                                 ROBIN_NU)

        mp.mp.dps = 40

        def robin(alpha, beta, nu, z, kind):  # alpha*B + beta*z*B'
            nu, z = mp.mpf(nu), mp.mpf(z)
            b, s = (mp.besseli, 1) if kind == "I" else (mp.besselk, -1)
            return alpha * b(nu, z) + beta * (s * z * b(nu + 1, z) + nu * b(nu, z))

        def signed_log(x):
            return int(mp.sign(x)), float(mp.log(abs(x)))

        def m_l(dim, eps, bc, l, ch, zb):
            g, pair = Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc)
            (a1, b1), (a2, b2) = (map(float, bc_coefficients(Channel(ch), s, dim))
                                  for s in (pair.inner, pair.outer))
            nu = l + (dim - 2) / 2.0
            u, u2 = nu * zb, mp.mpf(g.a2) / g.a1 * (nu * zb)
            return signed_log(robin(a1, b1, nu, u, "I") * robin(a2, b2, nu, u2, "K")
                              / (robin(a2, b2, nu, u2, "I") * robin(a1, b1, nu, u, "K")))

        pprint({nu: tuple((float(mp.log(mp.besseli(nu, nu * zb))),
                           float(mp.log(mp.besselk(nu, nu * zb)))) for zb in DENSE_ZB)
                for nu in DENSE_NU}, width=96)
        pprint({(c, ch): tuple(m_l(*c, ch, zb) for zb in M_ZB)
                for c in M_CASES for ch in ("TE", "TM")}, width=96)
        pprint({(nu, a, kind): tuple(signed_log(robin(a, 1, nu, nu * zb, kind))
                                     for zb in M_ZB)
                for nu in ROBIN_NU for a in ROBIN_ALPHA for kind in "IK"}, width=96)
    """
    misses = []

    def check(label, got, want):
        if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            misses.append(f"{label}: {got!r} vs {want!r}")

    for nu, rows in LOG_IK_DENSE.items():
        for zb, (li, lk) in zip(DENSE_ZB, rows):
            check(f"ln I nu={nu} z/nu={zb:.4g}", log_bessel_i(nu, nu * zb), li)
            check(f"ln K nu={nu} z/nu={zb:.4g}", log_bessel_k(nu, nu * zb), lk)
    for ((dim, eps, bc, l), ch), rows in M_DENSE.items():
        g, pair = Geometry.from_eps(eps, dim), BoundaryPair.from_string(bc)
        for zb, (sign, log_m) in zip(M_ZB, rows):
            m = m_ratio(l, g, pair, Channel(ch), (l + (dim - 2) / 2.0) * zb / g.a1)
            assert math.copysign(1, m) == sign
            check(f"ln|M| D={dim} {bc} l={l} {ch} z/nu={zb}", math.log(abs(m)), log_m)
    for (nu, alpha, kind), rows in ROBIN_DENSE.items():
        for zb, (sign, log_r) in zip(M_ZB, rows):
            r = robin_combination(alpha, 1.0, nu, nu * zb, kind)
            assert r.sign == sign
            check(f"Robin {kind} nu={nu} alpha={alpha} z/nu={zb}", r.log, log_r)
    assert not misses, "\n".join(misses)
