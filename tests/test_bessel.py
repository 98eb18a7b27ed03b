"""Log-domain Bessel evaluation against frozen arbitrary-precision oracles.

Reference values computed once with mpmath at 40 significant digits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from casimir_spheres import bessel
from casimir_spheres import (BoundaryCondition, BoundaryPair, Channel, Geometry, SignedLog,
                             bc_coefficients, debye_u, debye_v,
                             log_bessel_i, log_bessel_k, m_ratio, robin_combination)
from casimir_spheres.bessel import (_log_i_debye, _log_i_series, _log_k_debye, _log_k_smallz,
                                    _uniform_series)
from casimir_spheres.debye import MAX_ORDER

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


@pytest.mark.parametrize("ratio", [None, 0.5, -0.5, 7.0, -6.0])
def test_uniform_series_matches_exact_per_order_sum(ratio):
    # the folded float polynomials against sum_k a_k(t)/nu^k in exact rationals
    # at the same t, within 8 ulps of the sum of the terms' absolute values,
    # for a float order and a column of orders; with slope=True its z dE/dz and
    # z dO/dz likewise against sum_k a_k'(t)/nu^k times z dt/dz = -t^3 (z/nu)^2,
    # with a_k' from RationalPolynomial.derivative, and its (w, E, O) are the
    # slope=False call's to the bit;
    # an array call gives each element of its scalar calls, and a column of
    # orders against a block of z gives each row of its one-row calls
    cases = ((50.5, np.logspace(-1.0, 5.0, 13)), (1000.5, np.logspace(0.0, 7.0, 8)),
             (0.5, np.array([1e8, 1e12])), (10.5, np.array([1e8, 3e9])))
    column_nu, column_z = np.array([[50.5], [1000.5]]), np.array([cases[0][1][:8], cases[1][1]])
    column = _uniform_series(column_nu, column_z, ratio)
    column_slope = _uniform_series(column_nu, column_z, ratio, slope=True)
    assert len(column) == 3 and len(column_slope) == 5
    assert all(np.array_equal(a, b) for a, b in zip(column, column_slope[:3]))
    for row, (nu, zs) in enumerate(cases[:2]):
        for slope, full in ((False, column), (True, column_slope)):
            one = _uniform_series(np.array([[nu]]), zs[None, :8], ratio, slope)
            assert all(np.array_equal(a[row], b[0]) for a, b in zip(full, one))
    for case, (nu, zs) in enumerate(cases):
        w, even, odd = _uniform_series(nu, zs, ratio)
        slope = _uniform_series(nu, zs, ratio, slope=True)
        assert len(slope) == 5
        assert all(np.array_equal(a, b) for a, b in zip((w, even, odd), slope[:3]))
        for i, z in enumerate(zs):
            plain = _uniform_series(nu, float(z), ratio)
            assert plain == (w[i], even[i], odd[i])
            one_slope = _uniform_series(nu, float(z), ratio, slope=True)
            assert one_slope == tuple(x[i] for x in slope)
            assert one_slope[:3] == plain
            t = Fraction(1.0 / w[i])
            z_dt = -t ** 3 * (Fraction(z) / Fraction(nu)) ** 2
            sums, bound = [Fraction(0)] * 4, [0.0] * 2
            for k in range(1, MAX_ORDER + 1):
                a = debye_u(k) if ratio is None else \
                    debye_v(k) + debye_u(k - 1).shift_powers(1).scale(ratio)
                for n, p in enumerate((a, a.derivative())):
                    sums[2 * n + k % 2] += sum(c * t ** j for j, c in enumerate(p.coefficients)) \
                        / Fraction(nu) ** k
                    bound[n] += float(sum(abs(c) * t ** j for j, c in enumerate(p.coefficients))
                                      / Fraction(nu) ** k)
            exact = [float(x) for x in sums[:2]] + [float(x * z_dt) for x in sums[2:]]
            ulps = 8 * np.finfo(float).eps
            tol = [ulps * bound[0]] * 2 + [ulps * bound[1] * abs(float(z_dt))] * 2
            scored = [[x[i] for x in slope[1:]]]
            if case < 2 and i < 8:
                assert column[0][case, i] == w[i]
                scored.append([x[case, i] for x in column_slope[1:]])
            for values in scored:
                assert all(abs(v - x) <= e for v, x, e in zip(values, exact, tol))


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
            # z (I K' - I' K) = -1, with each product formed from its logs
            w = (i0.sign * zk.sign * math.exp(i0.log + zk.log)
                 - zi.sign * k0.sign * math.exp(zi.log + k0.log))
            worst = max(worst, abs(w + 1.0))
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
        assert r.sign * math.exp(r.log) == pytest.approx(direct, rel=1e-11)


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


def _robin_one_point(alpha, beta, nu, z, kind):
    """alpha*B + beta*z*B' from the public scalar ln I/ln K in scalar math: the oracle
    of the array form, with its cancellation rule (a factor that vanishes included)."""
    lb = log_bessel_i if kind == "I" else log_bessel_k
    lb0 = lb(nu, z)
    if beta == 0.0:
        c, t = alpha, 0.0
    elif kind == "I":
        c, t = alpha + beta * nu, beta * z * math.exp(log_bessel_i(nu + 1.0, z) - lb0)
    else:
        c, t = alpha - beta * nu, -beta * z * math.exp(log_bessel_k(abs(nu - 1.0), z) - lb0)
    s = c + t
    if abs(s) * 1e6 <= max(abs(c), abs(t)):
        return bessel._robin_mpmath(alpha, beta, nu, z, kind)
    return SignedLog(1 if s > 0 else -1, lb0 + math.log(abs(s)))


ROBIN_PAIRS = sorted({tuple(float(x) for x in bc_coefficients(ch, bc, dim))
                      for dim in (3, 5, 16) for ch in Channel for bc in BoundaryCondition})
SEAM_NU = (0.5, 1.5, 2.0, 2.5, 10.5, 48.5, 49.5, float(np.nextafter(50.0, 0.0)))


def seam_z(nu):
    """z on and around every branch seam of ln I_nu, ln I_nu+1, ln K_nu and ln K_|nu-1|."""
    zs = [1e-250, 1e-12, 1e-6, 29.5, 30.0, float(np.nextafter(30.0, 31.0)), 30.5,
          75.0, 200.0, 1e8, float(np.nextafter(1e8, 0.0))]
    for order in (nu, nu + 1.0, abs(nu - 1.0)):
        edge = math.sqrt(100.0 * (order + 1.0))  # ln I's series window
        zs += [edge, float(np.nextafter(edge, math.inf))]
        if order >= 2.0:  # ln K's small-z window
            edge = min(math.sqrt(4e-5 * (order - 1.0)), 2.0 * math.exp(-20.0 / order))
            zs += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 1.0))]
    return np.array(zs)


def test_robin_array_matches_scalar_elementwise():
    # z = 1e-250 takes the kve-overflow fallback for K_1.5 (at nu = 1.5 and 2.5)
    assert math.isinf(bessel._sp.kve(1.5, 1e-250))
    misses = []
    for nu in SEAM_NU:
        z = seam_z(nu)
        order = np.random.default_rng(int(4 * nu)).permutation(z.size)
        for (alpha, beta), kind in [(pair, kind) for pair in ROBIN_PAIRS for kind in "IK"]:
            full = robin_combination(alpha, beta, nu, z, kind)
            assert full.sign.shape == full.log.shape == z.shape
            # permuted and split calls give the same elements
            perm = robin_combination(alpha, beta, nu, z[order], kind)
            assert np.array_equal(perm.sign, full.sign[order])
            assert np.array_equal(perm.log, full.log[order])
            halves = [robin_combination(alpha, beta, nu, part, kind)
                      for part in (z[:5], z[5:])]
            assert np.array_equal(np.concatenate([h.log for h in halves]), full.log)
            for x, sign, log in zip(z.tolist(), full.sign.tolist(), full.log.tolist()):
                one = robin_combination(alpha, beta, nu, x, kind)
                want = _robin_one_point(alpha, beta, nu, x, kind)
                if (one.sign, one.log) != (sign, log) or want.sign != sign or not (
                        log == want.log or abs(log - want.log) <= 1e-14 * max(1.0, abs(want.log))):
                    misses.append(f"{kind} nu={nu} ({alpha}, {beta}) z={x!r}: "
                                  f"{(sign, log)} vs {(one.sign, one.log)}, {want}")
    assert not misses, "\n".join(misses[:20])


def test_robin_array_takes_the_mpmath_fallback_per_element(monkeypatch):
    # alpha I_2 + z I_2' vanishes near z = 1 for this alpha; only that element is
    # recomputed, and it equals its one-point call
    nu = 2.0
    alpha = -math.exp(log_bessel_i(nu + 1.0, 1.0) - log_bessel_i(nu, 1.0)) - nu + 1e-9
    calls, original = [], bessel._robin_mpmath
    monkeypatch.setattr(bessel, "_robin_mpmath",
                        lambda *args: calls.append(args[3]) or original(*args))
    z = np.array([0.5, 1.0, 2.0])
    full = robin_combination(alpha, 1.0, nu, z, "I")
    assert calls == [1.0]
    for i, x in enumerate(z.tolist()):
        one = robin_combination(alpha, 1.0, nu, x, "I")
        assert (one.sign, one.log) == (full.sign[i], full.log[i])
    assert full.sign[1] == 1


def test_robin_array_sends_uniform_elements_to_the_scalar_functions(monkeypatch):
    # below nu = 50 the uniform branch answers only for the neighbouring order
    # nu + 1 >= 50 outside the series window, and from z = 1e8; those elements
    # go through the public log_bessel_i/k one at a time, the others do not
    calls = []
    for name in ("log_bessel_i", "log_bessel_k"):
        original = getattr(bessel, name)
        monkeypatch.setattr(bessel, name, lambda nu, z, _o=original, _n=name:
                            calls.append((_n, nu, z)) or _o(nu, z))
    z = np.array([10.0, 200.0, 1e8, 300.0])
    robin_combination(0.5, 1.0, 49.5, z, "I")
    assert calls == [("log_bessel_i", 49.5, 1e8), ("log_bessel_i", 50.5, 200.0),
                     ("log_bessel_i", 50.5, 1e8), ("log_bessel_i", 50.5, 300.0)]
    calls.clear()
    robin_combination(0.5, 1.0, 49.5, z, "K")
    assert calls == [("log_bessel_k", 49.5, 1e8), ("log_bessel_k", 48.5, 1e8)]


def test_robin_array_rejects_bad_elements():
    with pytest.raises(ValueError):
        robin_combination(1.0, 1.0, 2.5, np.array([1.0, 0.0, 2.0]), "K")
    with pytest.raises(ValueError):
        robin_combination(1.0, 1.0, 2.5, np.array([1.0, np.nan]), "I")


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

# Robin combinations below the uniform branch (nu < 50), where they are B_nu
# times one float factor: the library's ratios alpha/beta in {1/2, -1/2} (D = 3)
# and {7, -6} (D = 16, nu >= 8), at 25 log-spaced z/nu in [1e-3, 1e3] plus z = 30.
LOW_NU = (0.5, 1.5, 8.5, 49.5)
LOW_ALPHA = (0.5, -0.5, 7.0, -6.0)
LOW_ZB = tuple(10.0 ** (k / 4.0 - 3.0) for k in range(25))

ROBIN_LOW = {(0.5, -6.0, 'I'): ((-1, -2.321494463662192), (-1, -2.0336712697048185),
                                (-1, -1.7458479517773378), (-1, -1.4580242418220728),
                                (-1, -1.170199292167264), (-1, -0.8823704222498836),
                                (-1, -0.594529155489773), (-1, -0.3066486876310043),
                                (-1, -0.01864426661409834), (-1, 0.2697520127411591),
                                (-1, 0.5593862985675198), (-1, 0.8529239598747052),
                                (-1, 1.1586909545538904), (-1, 1.5020252468794575),
                                (-1, 1.9541261199313187), (-1, 2.6718744592731296), (-1, 3.681459491969188),
                                (1, 7.751794280948295), (1, 15.743322737660568), (1, 28.603422467552043),
                                (1, 50.89781090217589), (1, 90.16295229687398), (1, 159.6846237448398),
                                (1, 283.04781593880193), (1, 502.1752802764578), (1, 30.537463197114363)),
             (0.5, -6.0, 'K'): ((-1, 5.897621679435855), (-1, 5.609469264356936), (-1, 5.321060569785468),
                                (-1, 5.032196119537248), (-1, 4.742521147883214), (-1, 4.451404651651593),
                                (-1, 4.157724118757291), (-1, 3.85948211023164), (-1, 3.5531225390688834),
                                (-1, 3.2323089176086452), (-1, 2.8857335768586987),
                                (-1, 2.4931671681009386), (-1, 2.0182750919800134),
                                (-1, 1.3954134160706801), (-1, 0.505112646510636),
                                (-1, -0.8715387073520664), (-1, -3.1365805682031183),
                                (-1, -7.0243390701694635), (-1, -13.860864943416036),
                                (-1, -26.01511646800922), (-1, -47.69597951191695),
                                (-1, -86.37378877958679), (-1, -155.31614680313555),
                                (-1, -278.1025358619687), (-1, -496.6539883728776),
                                (-1, -27.877495077597903)),
             (0.5, -0.5, 'I'): ((1, -20.326659765168042), (1, -18.887544027989826),
                                (1, -17.448428173925496), (1, -16.00931195023488), (1, -14.570194557683822),
                                (1, -13.131073468876428), (1, -11.691940691529657),
                                (1, -10.252770952270424), (1, -8.813484334125725), (1, -7.3738281619262995),
                                (1, -5.93300385115162), (1, -4.488490489399855), (1, -3.0323602229522697),
                                (1, -1.5399714886687046), (1, 0.06263829290712206), (1, 1.9777128383724818),
                                (1, 4.6627049692741185), (1, 8.945689632984049), (1, 16.20748090283058),
                                (1, 28.830102641172203), (1, 51.01687026219188), (1, 90.22755605777861),
                                (1, 159.72025761112712), (1, 283.06764207614543), (1, 502.1863635133358),
                                (1, 30.747758605950725)),
             (0.5, -0.5, 'K'): ((-1, 4.026242457457419), (-1, 3.738419050740958), (-1, 3.4505950604833124),
                                (-1, 3.162769227089834), (-1, 2.874937577429785), (-1, 2.587087603581156),
                                (-1, 2.299180064855999), (-1, 2.011092598020219), (-1, 1.7224476535911548),
                                (-1, 1.4321012245049867), (-1, 1.1366900520469418), (-1, 0.826791657064187),
                                (-1, 0.47783005103286447), (-1, 0.03152364419613365),
                                (-1, -0.6361894518565147), (-1, -1.7647340707327164),
                                (-1, -3.7871681343442676), (-1, -7.466482395865667),
                                (-1, -14.143905645856918), (-1, -26.188138801291842),
                                (-1, -47.79839451734502), (-1, -86.43316045876898),
                                (-1, -155.35012924056193), (-1, -278.12184008072234),
                                (-1, -496.6649065954815), (-1, -28.040820133701203)),
             (0.5, 0.5, 'I'): ((1, -4.026242457415774), (1, -3.7384190505068573), (1, -3.450595059167778),
                               (1, -3.1627692197011346), (1, -2.8749375359708287), (1, -2.5870873713445603),
                               (1, -2.2991787678782205), (1, -2.0110853934108133), (1, -1.7224080099080974),
                               (1, -1.4318867031017437), (1, -1.135562954898313), (1, -0.8211697189381388),
                               (1, -0.45225043596642256), (1, 0.06753828170323434), (1, 0.9327308230119861),
                               (1, 2.4132696940741916), (1, 4.885825821911594), (1, 9.06500062875602),
                               (1, 16.272814997102802), (1, 28.8663160924026), (1, 51.0370729695094),
                               (1, 90.23886660807979), (1, 159.7266022511769), (1, 283.0712049745567),
                               (1, 502.1883655160064), (1, 30.781660157626405)),
             (0.5, 0.5, 'K'): ((-1, -3.5751598771263136), (-1, -3.2877258802070775),
                               (-1, -3.0005947427078863), (-1, -2.714002173879498),
                               (-1, -2.4283673306292908), (-1, -2.1444355910552297),
                               (-1, -1.8635324456816214), (-1, -1.5880149870160412),
                               (-1, -1.322074784132268), (-1, -1.0731656180099585),
                               (-1, -0.8545423938921756), (-1, -0.6897760368546755),
                               (-1, -0.6207822376352452), (-1, -0.722098806030451),
                               (-1, -1.1262747944709235), (-1, -2.0690194537142235),
                               (-1, -3.9694896911382225), (-1, -7.573063604708581),
                               (-1, -14.205231718731607), (-1, -26.22308654078291),
                               (-1, -47.818197144641196), (-1, -86.44434450996309),
                               (-1, -155.35643387981168), (-1, -278.12539032994295),
                               (-1, -496.6669045981442), (-1, -28.073609956524194)),
             (0.5, 7.0, 'I'): ((1, -2.0113395090957265), (1, -1.7235162583512664), (1, -1.435692760847274),
                               (1, -1.1478684830214547), (1, -0.8600417376046445), (1, -0.5722071890128765),
                               (1, -0.2843479649443152), (1, 0.003589286542941335), (1, 0.2917732494971718),
                               (1, 0.5807370538781339), (1, 0.8721636531937449), (1, 1.1713457163816343),
                               (1, 1.4947338566158543), (1, 1.8916828139855197), (1, 2.4965575608455426),
                               (1, 3.6057128344685268), (1, 5.718683624199979), (1, 9.61372514731075),
                               (1, 16.617181772418366), (1, 29.074286165176286), (1, 51.159290602233646),
                               (1, 90.30942233845609), (1, 159.766889327853), (1, 283.094059442531),
                               (1, 502.20128174127296), (1, 30.977775036552696)),
             (0.5, 7.0, 'K'): ((1, 5.897467833281706), (1, 5.609195682907531), (1, 5.320574065520462),
                               (1, 5.031330978982995), (1, 4.740982686041309), (1, 4.448668835468217),
                               (1, 4.152859066607407), (1, 3.850830651267268), (1, 3.537737620229404),
                               (1, 3.204949066255694), (1, 2.83707355216475), (1, 2.4065990965708077),
                               (1, 1.8641244121527552), (1, 1.1201061593225488), (1, 0.008656873773702639),
                               (1, -1.7976472420915355), (1, -5.173462495464158), (-1, -8.88627005539425),
                               (-1, -14.734723978173868), (-1, -26.485980165633467),
                               (-1, -47.95745921197471), (-1, -86.5202588211689), (-1, -155.39841238614875),
                               (-1, -278.1487793656977), (-1, -496.67998983769286),
                               (-1, -28.317806917036236)),
             (1.5, -6.0, 'I'): ((-1, -9.573761375847528), (-1, -8.710291695690106),
                                (-1, -7.846821431102568), (-1, -6.983349318387949),
                                (-1, -6.119871361414489), (-1, -5.256374923593286),
                                (-1, -4.392820047414342), (-1, -3.529080405061641),
                                (-1, -2.6647568020738706), (-1, -1.798589763798298),
                                (-1, -0.9266252905429129), (-1, -0.03664532317519502),
                                (-1, 0.9072020699091924), (-1, 1.9919465125211324),
                                (-1, 3.2086372689993987), (1, 7.05115314271479), (1, 14.806477907923789),
                                (1, 27.081527083906565), (1, 48.27673876230481), (1, 85.5577930976622),
                                (1, 151.53543663510587), (1, 268.58770228890984), (1, 476.4877705588804),
                                (1, 845.9529157832696), (1, 1502.732662468595), (1, 30.505027921361208)),
             (1.5, -6.0, 'K'): ((-1, 11.994128805172316), (-1, 11.130657614535574),
                                (-1, 10.267182581034431), (-1, 9.403695430490773), (-1, 8.54017015871409),
                                (-1, 7.676525425587993), (-1, 6.81250889963652), (-1, 5.94734889942474),
                                (-1, 5.078741591802736), (-1, 4.200072464832254), (-1, 3.2934492417318415),
                                (-1, 2.3143068696343594), (-1, 1.1621161282059038),
                                (-1, -0.3688410983980034), (-1, -2.669557582913605),
                                (-1, -6.452708621536286), (-1, -12.992739531977229),
                                (-1, -24.55058340932492), (-1, -45.12903534827501), (-1, -81.8217645196212),
                                (-1, -147.2197834262001), (-1, -263.6951478100324),
                                (-1, -471.0191732478767), (-1, -839.9085468266477),
                                (-1, -1496.112607595555), (-1, -27.843821862491318)),
             (1.5, -0.5, 'I'): ((1, -11.077838222623933), (1, -10.214367353214982), (1, -9.350893327892003),
                                (1, -8.487409322768698), (1, -7.623893759506788), (1, -6.760278408257491),
                                (1, -5.896347575751158), (1, -5.031419863723841), (1, -4.1633473131262955),
                                (1, -3.2854047842936436), (1, -2.3769738839633225),
                                (1, -1.3786445912067857), (1, -0.14474502257386618),
                                (1, 1.5880145675061128), (1, 4.19809738215785), (1, 8.347932512869011),
                                (1, 15.302189893879879), (1, 27.3221963330579), (1, 48.40274693565408),
                                (1, 85.62604662511384), (1, 151.57304617954352), (1, 268.6086159426195),
                                (1, 476.4994580546679), (1, 845.959465272252), (1, 1502.7363383274026),
                                (1, 30.71504540854442)),
             (1.5, -0.5, 'K'): ((-1, 10.672373788953765), (-1, 9.808904376486016), (-1, 8.945434952045447),
                                (-1, 8.081965460499791), (-1, 7.218495593814723), (-1, 6.355023639588069),
                                (-1, 5.491540163282174), (-1, 4.627994007304491), (-1, 3.7641155216794058),
                                (-1, 2.8985525858355596), (-1, 2.025083698256311), (-1, 1.1188229729593917),
                                (-1, 0.09859515934906427), (-1, -1.2426029828349927),
                                (-1, -3.3267884351852857), (-1, -6.907886029494901),
                                (-1, -13.287207864113368), (-1, -24.73163913806377),
                                (-1, -45.236550578491645), (-1, -81.8842047058137), (-1, -147.255558058106),
                                (-1, -263.71548155504456), (-1, -471.03067739455554),
                                (-1, -839.9150383389623), (-1, -1496.1162651208715),
                                (-1, -28.0069902691828)),
             (1.5, 0.5, 'I'): ((1, -10.384691267063898), (1, -9.521220884166606), (1, -8.657748397323017),
                               (1, -7.794269257243087), (1, -6.930769078042863), (1, -6.0672023699059165),
                               (1, -5.203425304827199), (1, -4.33898329281292), (1, -3.4724411300145976),
                               (1, -2.5992835056805874), (1, -1.7054589229059847), (1, -0.7486612228710323),
                               (1, 0.38729620297926637), (1, 1.962420727859149), (1, 4.420772075146237),
                               (1, 8.472013102374287), (1, 15.370844298617971), (1, 27.360349765827742),
                               (1, 48.42404440926978), (1, 85.63797094822971), (1, 151.57973486742105),
                               (1, 268.6123718765976), (1, 476.5015684557158), (1, 845.9606514934728),
                               (1, 1502.7370052160936), (1, 30.748907371154598)),
             (1.5, 0.5, 'K'): ((-1, 9.979227731706954), (-1, 9.115760744005291), (-1, 8.252298968185944),
                               (-1, 7.388853556122241), (-1, 6.525459232268971), (-1, 5.6622227922934),
                               (-1, 4.799465308407073), (-1, 3.938111584199678), (-1, 3.0806095513118463),
                               (-1, 2.232356115737224), (-1, 1.4004317719791042), (-1, 0.5756129100830495),
                               (-1, -0.3242616914709693), (-1, -1.5353663181016612),
                               (-1, -3.5119012336751125), (-1, -7.018604922831037),
                               (-1, -13.351487015517932), (-1, -24.768394029494623),
                               (-1, -45.25740429907914), (-1, -81.89598855239343), (-1, -147.2622023084527),
                               (-1, -263.71922343514666), (-1, -471.03278335122815),
                               (-1, -839.9162231547332), (-1, -1496.1169315651186),
                               (-1, -28.039745442571437)),
             (1.5, 7.0, 'I'): ((1, -8.93777245618636), (1, -8.074302445327705), (1, -7.21083113497143),
                               (1, -6.347355715249529), (1, -5.483867300639178), (1, -4.620337793250026),
                               (1, -3.7566783457502884), (1, -2.8926080581805844), (1, -2.027239246018504),
                               (1, -1.15777077726889), (1, -0.2754038455122227), (1, 0.6471120007268594),
                               (1, 1.6907167943195691), (1, 3.0709721237050585), (1, 5.2526203595315915),
                               (1, 9.036470725714892), (1, 15.72941318251684), (1, 27.578139761753643),
                               (1, 48.55241110253203), (1, 85.71219474261514), (1, 151.6221537250622),
                               (1, 268.6364474992051), (1, 476.5151785588139), (1, 845.9683278215329),
                               (1, 1502.7413291856549), (1, 30.94481777201045)),
             (1.5, 7.0, 'K'): ((1, 11.683973168839572), (1, 10.820500449854363), (1, 9.957020595294011),
                               (1, 9.093518266287646), (1, 8.22994536886148), (1, 7.3661520852462825),
                               (1, 6.501676957074422), (1, 5.635125729863611), (1, 4.762417710053487),
                               (1, 3.8721912846427555), (1, 2.9350109116692145), (1, 1.88121425093528),
                               (1, 0.5599407258516852), (1, -1.3440715158891154), (1, -4.645719756877268),
                               (-1, -8.45000328732534), (-1, -13.916303023180463), (-1, -25.04725060098257),
                               (-1, -45.404712920173985), (-1, -81.97616668114877),
                               (-1, -147.30650056760877), (-1, -263.7438930254664),
                               (-1, -471.0465812483239), (-1, -839.9239588649623),
                               (-1, -1496.1212743126198), (-1, -28.283645351885664)),
             (8.5, -6.0, 'I'): ((1, -57.190147782945694), (1, -52.29714706023701), (1, -47.404130336564045),
                                (1, -42.511063014287764), (1, -37.61783569406302), (1, -32.724102504713315),
                                (1, -27.82877050387077), (1, -22.92839145734137), (1, -18.01213967810733),
                                (1, -13.04653856599332), (1, -7.932497247268597), (1, -2.4063806034248865),
                                (1, 4.122522050787664), (1, 12.836470114418074), (1, 26.040529781551683),
                                (1, 47.92660449938736), (1, 85.80257838326145), (1, 152.46276284199487),
                                (1, 270.51349685630987), (1, 480.06705872846044), (1, 852.4036759305726),
                                (1, 1514.2508829863584), (1, 2690.94952525648), (1, 4783.209521638999),
                                (1, 8503.599972145395), (1, 29.3758497478588)),
             (8.5, -6.0, 'K'): ((-1, 57.947375166407824), (-1, 53.054377354586364),
                                (-1, 48.161369835864825), (-1, 43.26833162137837), (-1, 38.37519633984404),
                                (-1, 33.48175412018819), (-1, 28.587341425265787), (-1, 23.68986129925684),
                                (-1, 18.782695859114774), (-1, 13.84504854045694), (-1, 8.812413619508973),
                                (-1, 3.492006118382011), (-1, -2.643001785765666),
                                (-1, -10.821847525256004), (-1, -23.448594109358456),
                                (-1, -44.75522746702215), (-1, -82.05391329107744),
                                (-1, -148.13788342023736), (-1, -265.61278647585993),
                                (-1, -474.59064316178694), (-1, -846.3515954095325),
                                (-1, -1507.6231502794562), (-1, -2683.746144406084),
                                (-1, -4775.43049392388), (-1, -8495.245297969981),
                                (-1, -26.67318283064814)),
             (8.5, -0.5, 'I'): ((1, -56.026998018862464), (1, -51.13399955728764), (1, -46.240989983871884),
                                (1, -41.347945271935394), (1, -36.45478944429545), (1, -31.561282258503145),
                                (1, -26.666664186136074), (1, -21.768535233976387),
                                (1, -16.859324343153197), (1, -11.915271114079237),
                                (1, -6.8629781817423225), (1, -1.4857138038906799), (1, 4.791223312468487),
                                (1, 13.243059701170395), (1, 26.26611286055281), (1, 48.04949368585975),
                                (1, 85.86994185078926), (1, 152.50001909087047), (1, 270.5342383853082),
                                (1, 480.07865451341803), (1, 852.410174889262), (1, 1514.2545306616248),
                                (1, 2690.951574285291), (1, 4783.210673192128), (1, 8503.60061948951),
                                (1, 29.576772538894804)),
             (8.5, -0.5, 'K'): ((-1, 57.470451297318625), (-1, 52.577453924440825), (-1, 47.68444779377096),
                                (-1, 42.791413968588856), (-1, 37.89829256624908), (-1, 33.004894226418315),
                                (-1, 28.110620191369296), (-1, 23.21357754639331), (-1, 18.307785642352773),
                                (-1, 13.374385849387263), (-1, 8.354308407062684), (-1, 3.0668480455533613),
                                (-1, -3.0009734797464316), (-1, -11.085619528869392),
                                (-1, -23.621471422906517), (-1, -44.86052440145244),
                                (-1, -82.11561443512129), (-1, -148.17333894391973),
                                (-1, -265.63295754416015), (-1, -474.6020584488617),
                                (-1, -846.3580372795352), (-1, -1507.6267799006703), (-1, -2683.7481877256),
                                (-1, -4775.431643671561), (-1, -8495.245944743165),
                                (-1, -26.83114214986993)),
             (8.5, 0.5, 'I'): ((1, -55.90921503602038), (1, -51.01621668864449), (1, -46.123207476355454),
                               (1, -41.23016390638142), (1, -36.33701168973911), (1, -31.443515920876962),
                               (1, -26.548933931556565), (1, -21.650918879864925), (1, -16.742066145723417),
                               (1, -11.799125634512006), (1, -6.750164811283716), (1, -1.3818868376305142),
                               (1, 4.876170295885509), (1, 13.302028632563376), (1, 26.30217285725104),
                               (1, 48.07030086077015), (1, 85.88171673575003), (1, 152.5066463138619),
                               (1, 270.53796378338967), (1, 480.0807484673759), (1, 852.4113519936811),
                               (1, 1514.2551924481559), (1, 2690.951946385323), (1, 4783.210882423028),
                               (1, 8503.600737143433), (1, 29.6093320271289)),
             (8.5, 0.5, 'K'): ((-1, 57.35266832856033), (-1, 52.45967110033433), (-1, 47.566665427089774),
                               (-1, 42.67363304837484), (-1, 37.780516219779315), (-1, 32.88713233953341),
                               (-1, 27.99290399110532), (-1, 23.096005435237597), (-1, 18.19066537607969),
                               (-1, 13.258657664297688), (-1, 8.242650255765662), (-1, 2.9655535503066917),
                               (-1, -3.0824646100209416), (-1, -11.142061240170243),
                               (-1, -23.65638670257569), (-1, -44.88092016405487), (-1, -82.12725362128097),
                               (-1, -148.17992267200333), (-1, -265.6366691288613),
                               (-1, -474.6041480287124), (-1, -846.3592130001463),
                               (-1, -1507.6274412495434), (-1, -2683.7485596872266),
                               (-1, -4775.431852858693), (-1, -8495.246062383245),
                               (-1, -26.86274888556482)),
             (8.5, 7.0, 'I'): ((1, -55.36559976661486), (1, -50.47260180235818), (1, -45.57959380159285),
                               (1, -40.68655406273702), (1, -35.79341396059271), (1, -30.89995649552295),
                               (1, -26.00549557732046), (1, -21.107862826011864), (1, -16.200213461621306),
                               (1, -11.261023596027849), (1, -6.2234045405170235), (1, -0.8865677083853309),
                               (1, 5.301015469155059), (1, 13.618455308200804), (1, 26.50936121478626),
                               (1, 48.19591916047379), (1, 85.95504889483512), (1, 152.54868471127676),
                               (1, 270.5618463490233), (1, 480.0942533254617), (1, 852.4189695834053),
                               (1, 1514.2594834181539), (1, 2690.954361666457), (1, 4783.21224135784),
                               (1, 8503.601501556695), (1, 29.79848715977772)),
             (8.5, 7.0, 'K'): ((-1, 55.678694504010494), (-1, 50.78570291717351), (-1, 45.89271508320179),
                               (-1, 40.99973911356518), (-1, 36.10680062959048), (-1, 31.213980359372663),
                               (-1, 26.32153065972125), (-1, 21.430220547206908), (-1, 16.542200187934192),
                               (-1, 11.66169494775414), (-1, 6.7822844425035305), (-1, 1.7849191438445353),
                               (-1, -3.8851440309895353), (-1, -11.615947771781407),
                               (-1, -23.91899618139227), (-1, -45.0247139248913), (-1, -82.20640149082169),
                               (-1, -148.22380707487565), (-1, -265.66113614763674),
                               (-1, -474.61783777671127), (-1, -846.366889064158), (-1, -1507.631750711431),
                               (-1, -2683.750980816079), (-1, -4775.433213642722), (-1, -8495.246827381283),
                               (-1, -27.09685854998317)),
             (49.5, -6.0, 'I'): ((1, -325.8435064683665), (1, -297.34898850835987),
                                 (1, -268.85441122808936), (1, -240.359646361624), (1, -211.86428830502516),
                                 (1, -183.36705451150908), (1, -154.86389006657882), (1, -126.341980739024),
                                 (1, -97.76088936459901), (1, -68.99358143751843), (1, -39.64640190458133),
                                 (1, -8.546256874657761), (1, 27.487701503281862), (1, 75.7671089910452),
                                 (1, 150.36151230337916), (1, 275.8497201783661), (1, 494.6999889771222),
                                 (1, 881.3215752319601), (1, 1567.3000006907168), (1, 2786.1940433869217),
                                 (1, 4953.085871281888), (1, 8805.965640029684), (1, 15657.106025847123),
                                 (1, 27840.049458565707), (1, 49504.46104689668), (1, -4.242740861709766)),
             (49.5, -6.0, 'K'): ((-1, 329.0375310897141), (-1, 300.54301423816526), (-1, 272.0484404631301),
                                 (-1, 243.55368668103154), (-1, 215.05836367467342),
                                 (-1, 186.56124070370572), (-1, 158.05842655010042),
                                 (-1, 129.53762334084206), (-1, 100.96001392197722),
                                 (-1, 72.20356113357221), (-1, 42.88924517283801), (-1, 11.880812056018),
                                 (-1, -23.9402860110739), (-1, -71.84924937397392),
                                 (-1, -145.9552883914056), (-1, -270.898916827861),
                                 (-1, -489.18377418393817), (-1, -875.2329942212386),
                                 (-1, -1560.636815086119), (-1, -2778.955541363161), (-1, -4945.2718273386),
                                 (-1, -8797.575982817163), (-1, -15648.140732798587),
                                 (-1, -27830.50852254451), (-1, -49494.344465645976),
                                 (-1, 7.596720513249969)),
             (49.5, -0.5, 'I'): ((1, -325.7244471709493), (1, -297.2299293462983), (1, -268.73535249405717),
                                 (1, -240.24058898110985), (1, -211.74523520441755),
                                 (1, -183.2480149422202), (1, -154.74489325775954), (1, -126.2231188582539),
                                 (1, -97.64245126286642), (1, -68.87645515306004), (1, -39.53316201747271),
                                 (1, -8.443210403259448), (1, 27.570449327258714), (1, 75.82361623768476),
                                 (1, 150.39579040486174), (1, 275.8694347211613), (1, 494.71112892943415),
                                 (1, 881.3278402711182), (1, 1567.3035210090288), (1, 2786.1960216057573),
                                 (1, 4953.086983179862), (1, 8805.96626510981), (1, 15657.106377293747),
                                 (1, 27840.04965617862), (1, 49504.46115801615), (1, -4.141734986144153)),
             (49.5, -0.5, 'K'): ((-1, 328.9331711244553), (-1, 300.4386543811616), (-1, 271.94408094845693),
                                 (-1, 243.44932824887937), (-1, 214.95400866552347),
                                 (-1, 186.45689651674144), (-1, 157.95411656293317),
                                 (-1, 129.43342127393123), (-1, 100.85615085747763),
                                 (-1, 72.10074794597777), (-1, 42.78954715225269), (-1, 11.789327652160905),
                                 (-1, -24.015145900293618), (-1, -71.90183356438946),
                                 (-1, -145.98805338550164), (-1, -270.91811728900444),
                                 (-1, -489.19474765825856), (-1, -875.2392062120301),
                                 (-1, -1560.6403185883225), (-1, -2778.9575142601893),
                                 (-1, -4945.272937553261), (-1, -8797.576607364937),
                                 (-1, -15648.141084076864), (-1, -27830.508720104186),
                                 (-1, -49494.34457674862), (-1, 7.506889452846272)),
             (49.5, 0.5, 'I'): ((1, -325.7042444735338), (1, -297.2097266702936), (1, -268.71514988575893),
                                (1, -240.2203865869139), (1, -211.72503348722822), (1, -183.22781536547177),
                                (1, -154.72470044526244), (1, -126.20294739213514), (1, -97.6223468626781),
                                (1, -68.85655856573479), (1, -39.51388295510633), (1, -8.425564297687894),
                                (1, 27.584785477817693), (1, 75.83355583293326), (1, 150.40189848756884),
                                (1, 275.87297779740715), (1, 494.71314110960685), (1, 881.3289751641055),
                                (1, 1567.3041597375905), (1, 2786.1963808618443), (1, 4953.087185210369),
                                (1, 8805.966378718775), (1, 15657.106441179865), (1, 27840.049692104043),
                                (1, 49504.46117821837), (1, -4.124418105612651)),
             (49.5, 0.5, 'K'): ((-1, 328.9129684274481), (-1, 300.41845170644814), (-1, 271.92387834424187),
                                (-1, 243.4291258675951), (-1, 214.93380698915897), (-1, 186.4366970690365),
                                (-1, 157.93392415794943), (-1, 129.4132510909259), (-1, 100.83605046002371),
                                (-1, 72.0808634907083), (-1, 42.770301828872626), (-1, 11.771756047003546),
                                (-1, -24.02938002434781), (-1, -71.91169866382972),
                                (-1, -145.99412773841235), (-1, -270.92164823827795),
                                (-1, -489.19675583761574), (-1, -875.2403398225457),
                                (-1, -1560.6409569095772), (-1, -2778.9578733872986),
                                (-1, -4945.273139542965), (-1, -8797.576720960999), (-1, -15648.1411479589),
                                (-1, -27830.50875602832), (-1, -49494.344596950425),
                                (-1, 7.489652760003531)),
             (49.5, 7.0, 'I'): ((1, -325.58202689662875), (1, -297.0875092140849), (1, -268.5929328112232),
                                (1, -240.09817071931036), (1, -211.6028214360414), (1, -183.10561538047514),
                                (1, -154.60253859313642), (1, -126.08090588956227), (1, -97.50068358463741),
                                (1, -68.73606833813894), (1, -39.39688808451508), (1, -8.317882228761238),
                                (1, 27.673272617406646), (1, 75.89586124824588), (1, 150.4407167456159),
                                (1, 275.89570677134395), (1, 494.72612250660916), (1, 881.3363207392471),
                                (1, 1567.3083015584123), (1, 2786.198712885717), (1, 4953.0884974147075),
                                (1, 8805.967116862606), (1, 15657.10685634018), (1, 27840.049925587853),
                                (1, 49504.46130952281), (1, -4.0186260232388555)),
             (49.5, 7.0, 'K'): ((-1, 328.7706522841115), (-1, 300.27613573359287), (-1, 271.7815629104922),
                                (-1, 243.28681213860693), (-1, 214.7914986507018), (-1, 186.29440577295424),
                                (-1, 157.79168671481276), (-1, 129.27118354910613),
                                (-1, 100.69451626150776), (-1, 71.9409776177449), (-1, 42.635276630283315),
                                (-1, 11.649334356765635), (-1, -24.127195106575375),
                                (-1, -71.97830917498378), (-1, -146.03453675033296),
                                (-1, -270.94490840846714), (-1, -489.20990823357204),
                                (-1, -875.2477397812453), (-1, -1560.645115959109),
                                (-1, -2778.9602108624867), (-1, -4945.274453471472),
                                (-1, -8797.57745965009), (-1, -15648.141563291645),
                                (-1, -27830.508989566657), (-1, -49494.34472827211),
                                (-1, 7.3697315704388835))}


def test_robin_below_debye_dense_grid():
    """Robin signs exact and logs within 1e-12 * max(1, |x|) of mpmath at nu < 50.

    Regenerate ROBIN_LOW from tests/ with PYTHONPATH=../src:. and

        from pprint import pprint

        import mpmath as mp
        from test_bessel import LOW_ALPHA, LOW_NU, LOW_ZB

        mp.mp.dps = 40

        def robin(alpha, beta, nu, z, kind):  # alpha*B + beta*z*B'
            nu, z = mp.mpf(nu), mp.mpf(z)
            b, s = (mp.besseli, 1) if kind == "I" else (mp.besselk, -1)
            return alpha * b(nu, z) + beta * (s * z * b(nu + 1, z) + nu * b(nu, z))

        def signed_log(x):
            return int(mp.sign(x)), float(mp.log(abs(x)))

        pprint({(nu, a, kind): tuple(signed_log(robin(a, 1, nu, z, kind))
                                     for z in tuple(nu * zb for zb in LOW_ZB) + (30.0,))
                for nu in LOW_NU for a in LOW_ALPHA for kind in "IK"},
               width=96, compact=True)
    """
    misses = []
    for (nu, alpha, kind), rows in ROBIN_LOW.items():
        for z, (sign, log_r) in zip(tuple(nu * zb for zb in LOW_ZB) + (30.0,), rows):
            r = robin_combination(alpha, 1.0, nu, z, kind)
            if r.sign != sign or not abs(r.log - log_r) <= 1e-12 * max(1.0, abs(log_r)):
                misses.append(f"Robin {kind} nu={nu} alpha={alpha} z={z:.6g}: "
                              f"{(r.sign, r.log)!r} vs {(sign, log_r)!r}")
    assert not misses, "\n".join(misses)


# Past AMOS's range: ive/kve return NaN for z > 2^30, and from z = 1e8 every
# order nu > 0 takes the uniform branch.  Orders on both sides of the seams,
# z from AMOS's own range (3e4 .. 9.9e7) across z = 1e8 to 1e15.
LARGE_NU = (0.5, 1.5, 10.5, 49.5)
LARGE_Z = (3e4, 1e6, 9.9e7, 1e8, 1.01e8, 1.2e9, 1.26e10, 1e12, 1e15)
LARGE_ROBIN_Z = (1.2e9, 1e12)

LOG_IK_LARGE_Z = {0.5: ((29993.926585136473, -30004.928684977676),
                        (999992.1733061878, -1000006.6819639263),
                        (98999989.87574627, -99000008.97952385),
                        (99999989.8707211, -100000008.98454902),
                        (100999989.86574593, -101000008.98952419),
                        (1199999988.6282678, -1200000010.2270024),
                        (12599999987.45258, -12600000011.40269),
                        (999999999985.2655, -1000000000013.5897),
                        (999999999999981.8, -1000000000000017.0)),
                  1.5: ((29993.926551802586, -30004.9286516449),
                        (999992.1733051878, -1000006.6819629263),
                        (98999989.87574625, -99000008.97952384),
                        (99999989.87072109, -100000008.98454902),
                        (100999989.86574592, -101000008.98952417),
                        (1199999988.6282678, -1200000010.2270024),
                        (12599999987.45258, -12600000011.40269),
                        (999999999985.2655, -1000000000013.5897),
                        (999999999999981.8, -1000000000000017.0)),
                  10.5: ((29993.924751772603, -30004.926851674918),
                         (999992.1732511878, -1000006.6819089263),
                         (98999989.87574571, -99000008.9795233),
                         (99999989.87072055, -100000008.98454846),
                         (100999989.86574538, -101000008.98952363),
                         (1199999988.6282678, -1200000010.2270024),
                         (12599999987.45258, -12600000011.40269),
                         (999999999985.2655, -1000000000013.5897),
                         (999999999999981.8, -1000000000000017.0)),
                  49.5: ((29993.885751131827, -30004.88785233414),
                         (999992.1720811873, -1000006.680738927),
                         (98999989.87573388, -99000008.97951148),
                         (99999989.87070884, -100000008.98453677),
                         (100999989.8657338, -101000008.98951206),
                         (1199999988.6282668, -1200000010.2270014),
                         (12599999987.45258, -12600000011.402689),
                         (999999999985.2655, -1000000000013.5897),
                         (999999999999981.8, -1000000000000017.0))}

ROBIN_LARGE_Z = {(0.5, -6.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (0.5, -6.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (0.5, -0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (0.5, -0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (0.5, 0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (0.5, 0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (0.5, 7.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (0.5, 7.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (1.5, -6.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (1.5, -6.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (1.5, -0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (1.5, -0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (1.5, 0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (1.5, 0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (1.5, 7.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (1.5, 7.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (10.5, -6.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (10.5, -6.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (10.5, -0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (10.5, -0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (10.5, 0.5, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (10.5, 0.5, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (10.5, 7.0, 'I'): ((1, 1200000009.5338552), (1, 1000000000012.8966)),
                 (10.5, 7.0, 'K'): ((-1, -1199999989.321415), (-1, -999999999985.9587)),
                 (49.5, -6.0, 'I'): ((1, 1200000009.5338542), (1, 1000000000012.8966)),
                 (49.5, -6.0, 'K'): ((-1, -1199999989.321414), (-1, -999999999985.9587)),
                 (49.5, -0.5, 'I'): ((1, 1200000009.5338542), (1, 1000000000012.8966)),
                 (49.5, -0.5, 'K'): ((-1, -1199999989.321414), (-1, -999999999985.9587)),
                 (49.5, 0.5, 'I'): ((1, 1200000009.5338542), (1, 1000000000012.8966)),
                 (49.5, 0.5, 'K'): ((-1, -1199999989.321414), (-1, -999999999985.9587)),
                 (49.5, 7.0, 'I'): ((1, 1200000009.5338542), (1, 1000000000012.8966)),
                 (49.5, 7.0, 'K'): ((-1, -1199999989.321414), (-1, -999999999985.9587))}


def test_large_z_dense_grid():
    """ln I, ln K and Robin logs within 1e-12 * max(1, |x|) of mpmath past z = 1e8.

    Regenerate the tables from tests/ with PYTHONPATH=../src:. and

        from pprint import pprint

        import mpmath as mp
        from test_bessel import LARGE_NU, LARGE_ROBIN_Z, LARGE_Z, LOW_ALPHA

        mp.mp.dps = 40

        def robin(alpha, beta, nu, z, kind):  # alpha*B + beta*z*B'
            nu, z = mp.mpf(nu), mp.mpf(z)
            b, s = (mp.besseli, 1) if kind == "I" else (mp.besselk, -1)
            return alpha * b(nu, z) + beta * (s * z * b(nu + 1, z) + nu * b(nu, z))

        def signed_log(x):
            return int(mp.sign(x)), float(mp.log(abs(x)))

        pprint({nu: tuple((float(mp.log(mp.besseli(nu, z))),
                           float(mp.log(mp.besselk(nu, z)))) for z in LARGE_Z)
                for nu in LARGE_NU}, width=80)
        pprint({(nu, a, kind): tuple(signed_log(robin(a, 1, nu, z, kind))
                                     for z in LARGE_ROBIN_Z)
                for nu in LARGE_NU for a in LOW_ALPHA for kind in "IK"}, width=80)
    """
    misses = []

    def check(label, got, want):
        if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            misses.append(f"{label}: {got!r} vs {want!r}")

    for nu, rows in LOG_IK_LARGE_Z.items():
        for z, (li, lk) in zip(LARGE_Z, rows):
            check(f"ln I nu={nu} z={z:g}", log_bessel_i(nu, z), li)
            check(f"ln K nu={nu} z={z:g}", log_bessel_k(nu, z), lk)
    for (nu, alpha, kind), rows in ROBIN_LARGE_Z.items():
        for z, (sign, log_r) in zip(LARGE_ROBIN_Z, rows):
            r = robin_combination(alpha, 1.0, nu, z, kind)
            if r.sign != sign:
                misses.append(f"Robin {kind} nu={nu} alpha={alpha} z={z:g}: sign {r.sign}")
            check(f"Robin {kind} nu={nu} alpha={alpha} z={z:g}", r.log, log_r)
    assert not misses, "\n".join(misses)


def test_order_zero_past_amos_range_raises():
    # nu = 0 has no uniform branch, and AMOS returns NaN past z = 2^30.
    for fn in (log_bessel_i, log_bessel_k):
        with pytest.raises(ArithmeticError, match="nu=0.0"):
            fn(0.0, 2e9)


# The small-z K series answers only where nu ln(2/z) >= 20 as well as
# z^2 <= 4e-5 (nu - 1): it drops the crossing term (z/2)^(2 nu).
SMALL_Z_K_NU = (2.0, 2.5, 3.0, 4.0)


def small_z_k_grid(nu):
    """13 log-spaced z from 1e-6 to the edge sqrt(4e-5 (nu - 1)) of the series window."""
    edge = math.sqrt(4e-5 * (nu - 1.0))
    return tuple(1e-6 * (edge / 1e-6) ** (k / 12.0) for k in range(13))


LOG_K_SMALL_Z = {
    2.0: (28.324168296488242, 26.865469128814233, 25.406769961137503,
          23.94807079344906, 22.48937162571026, 21.030672457754896,
          19.57197328886825, 18.113274115976736, 16.65457492586285,
          15.195875661686614, 13.737176079016791, 12.278475126731053,
          10.819768284953216),
    2.5: (35.863180036223355, 33.997570127870034, 32.13196021951473,
          30.26635031115061, 28.400740402747285, 26.535130494169554,
          24.669520584816045, 22.803910672011757, 20.938300743857898,
          19.072690747426872, 17.207080447289062, 15.341468796221923,
          13.475851136089936),
    3.0: (43.525973215572535, 41.25128106649232, 38.976588917410524,
          36.701896768321525, 34.42720461919972, 32.15251246992842,
          29.877820319976006, 27.603128166920424, 25.32843599972656,
          23.053743768117613, 20.779051243028835, 18.50435738082576,
          16.22965742666542),
    4.0: (59.133243242764905, 56.03274285930687, 52.932242475847694,
          49.8317420923831, 46.731241708893, 43.63074132528268,
          40.530240941105795, 37.429740554258906, 34.32924015482922,
          31.22873969610123, 28.128238957921177, 25.027736902782415,
          21.927228641297347),
}


def test_log_k_small_z_window():
    """ln K within 1e-12 * max(1, |x|) of mpmath up to the small-z series' window edge.

    Regenerate the table from tests/ with PYTHONPATH=../src:. and

        from pprint import pprint

        import mpmath as mp
        from test_bessel import SMALL_Z_K_NU, small_z_k_grid

        mp.mp.dps = 40
        pprint({nu: tuple(float(mp.log(mp.besselk(nu, z))) for z in small_z_k_grid(nu))
                for nu in SMALL_Z_K_NU}, width=80)
    """
    misses = [f"nu={nu} z={z:g}: {log_bessel_k(nu, z)!r} vs {want!r}"
              for nu, row in LOG_K_SMALL_Z.items()
              for z, want in zip(small_z_k_grid(nu), row)
              if not abs(log_bessel_k(nu, z) - want) <= 1e-12 * max(1.0, abs(want))]
    assert not misses, "\n".join(misses)


def _i_series_loop(nu, z):
    """Sum of I's ascending series, one term at a time: the reference of the array form."""
    q = 0.25 * z * z
    s = term = 1.0
    k = 1
    while True:
        term *= q / (k * (nu + k))
        s += term
        if term < 1e-18 * s:
            return s
        k += 1


def _k_series_loop(nu, z):
    """Sum of K's small-z series, one term at a time: the reference of the array form."""
    q = 0.25 * z * z
    s = term = 1.0
    for k in range(1, 7):
        den = nu - k
        if den <= 0.0:
            break
        term *= -q / (k * den)
        s += term
        if abs(term) < 1e-18:
            break
    return s


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 2.0, 2.5, 10.5, 49.5, 50.5, 300.5, 1000.5])
def test_series_sums_match_the_scalar_loop(nu):
    # the array forms add the same terms in the same order, with each element's
    # own stop, so their sums equal the loop's exactly, whatever the other elements
    edge = max(30.0, math.sqrt(100.0 * (nu + 1.0)))
    z = np.r_[np.logspace(-12.0, math.log10(edge), 60), edge, np.nextafter(edge, 0.0)]
    want = np.array([nu * np.log(0.5 * x) - math.lgamma(nu + 1.0) + np.log(_i_series_loop(nu, x))
                     for x in z.tolist()])
    assert np.array_equal(_log_i_series(nu, z), want)
    assert np.array_equal(_log_i_series(nu, z[::-1]), want[::-1])
    if nu >= 2.0:
        z = np.logspace(-15.0, 0.0, 40)
        want = np.array([math.lgamma(nu) - math.log(2.0) - nu * np.log(0.5 * x)
                         + np.log(_k_series_loop(nu, x)) for x in z.tolist()])
        assert np.array_equal(_log_k_smallz(nu, z), want)


@pytest.mark.parametrize("nu, z", [(1e10, 1e6), (1e14, 1e8)])
def test_series_at_a_large_order_stays_short(monkeypatch, nu, z):
    # inside the series window at a large order the term ratio q/(k (nu + k))
    # is about 25/k, so about 80 terms reach the stop however large z is: no
    # row wider than the loop's 512-term limit is built
    assert bessel._i_series_window(nu, z)
    widths, original = [], bessel._ordered_sums
    monkeypatch.setattr(bessel, "_ordered_sums",
                        lambda top, den: widths.append(den.size) or original(top, den))
    got = log_bessel_i(nu, z)
    assert widths and max(widths) <= 512
    assert got == nu * np.log(0.5 * z) - math.lgamma(nu + 1.0) + np.log(_i_series_loop(nu, z))
    # the uniform expansion, an independent route, agrees
    assert abs(got - _log_i_debye(nu, z)) <= 1e-14 * abs(got)
