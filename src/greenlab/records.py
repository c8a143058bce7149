"""The exact algebra of the Jacobi records.

Each family's radial geometry is one record (m, k, s): S^n (n/2, n/2, 1/2),
RP^n (n/2, 1/2, 1), CP^n (n, 1, 1), HP^n (2n, 2, 1) and OP^2 (8, 4, 1), with
v(r)/omega = s^(1-d) sin^(2m-1)(s r) cos^(2k-1)(s r), omega the area of the
unit (d-1)-sphere. Everything else derives from it: d = 2m, D = pi/(2s),
V/omega = B(m, k)/(2 s^d), V = pi^m Gamma(k)/(s^d Gamma(m+k)),
B_M = (V/omega)/(d-2), c_opt = (d V/omega)^(2/d), and V(a)/V = I_x(m, k),
x = sin^2(s a), or 1 - I_y(k, m), y = cos^2(s a), past the mean x = m/(m+k).
For s = 1 and integer k that is x^m D(y), D(y) = sum_(j<k) C(m+j-1, j) y^j.

Each function derives an exact quantity that the other modules evaluate, in
`fractions` or 40-digit `decimal` arithmetic, from a record tuple alone, so
a mirror record (k, m, s) needs no manifold. The `manifold.Family` -> record
table stays next to `ManifoldSpec`: this module imports no greenlab module.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

Record = tuple[float, float, float]


def pi_rational(pi_power, up, down, scale) -> float:
    """scale pi^pi_power prod Gamma(up) / prod Gamma(down), all in N/2, rounded once:
    a rational times pi^p, p an integer, with fl(pi)^p exact as a fraction and
    pi - fl(pi) = sin(fl(pi)) to within 1e-48."""
    q, half_powers = Fraction(scale), round(2 * pi_power)
    for sign, args in ((1, up), (-1, down)):
        for j, half in (divmod(round(2 * x), 2) for x in args):
            # Gamma(j) = (j-1)! and Gamma(j + 1/2) = sqrt(pi) (2j-1)!! / 2^j
            r = Fraction(math.prod(range(1, 2 * j, 2)), 2**j) if half else math.factorial(j - 1)
            q, half_powers = q * Fraction(r) ** sign, half_powers + sign * half
    p = half_powers // 2
    return float(q * Fraction(math.pi) ** p) * (1.0 + p * math.sin(math.pi) / math.pi)


@cache
def volume_ratio(record: Record) -> float:
    """V / omega = B(m, k) / (2 s^d), omega the area of the unit (d-1)-sphere."""
    m, k, s = record
    return pi_rational(0, (m, k), (m + k,), 1 / (2 * Fraction(s) ** round(2 * m)))


def volume(record: Record) -> float:
    """V = pi^m Gamma(k) / (s^d Gamma(m + k)), which may leave the normal range."""
    m, k, s = record
    return pi_rational(m, (k,), (m + k,), 1 / Fraction(s) ** round(2 * m))


@cache
def kernel_scale(record: Record) -> float:
    """1 / (4^l m B(m, k)), l = min(m, k) (`special_math.incomplete_beta`): with m >= k
    on every manifold record, it turns 4^k x^m y^k F(x) into mu (`record_series`)."""
    m, k, _ = record
    return pi_rational(0, (m + k,), (m, k), 1 / (Fraction(m) * 2 ** round(2 * min(m, k))))


def recentre(coeffs: list[Fraction]) -> list[Fraction]:
    """The coefficients of c(1 - s) from those of c(s), exactly: in integers
    over the coefficients' common denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in coeffs))
    out = [0] * len(coeffs)
    for i, ci in enumerate(int(v * den) for v in coeffs):
        if ci:
            for k in range(i + 1):
                out[k] += ci * math.comb(i, k) * (-1) ** k
    return [Fraction(v, den) for v in out]


def antiderivative(coeffs: list, j: int) -> tuple[list, Fraction]:
    """(G, b) such that G(s) / s^(j-1) + b log s is an antiderivative of c(s) / s^j."""
    return [0 if i == j - 1 else v / (i - j + 1) for i, v in enumerate(coeffs)], coeffs[j - 1]


def flip(coeffs: list) -> list:
    """The coefficients of c(-s) from those of c(s)."""
    return [v if i % 2 == 0 else -v for i, v in enumerate(coeffs)]


def laurent_numerator(record: Record) -> list[Fraction]:
    """q_j of Q(1 - y) = sum_j q_j y^j, with h = Q(x) / x^m on a record
    (m, k, s) with integer m, exactly: h = 2F1(k, 1 - m; k + 1; y) / (4 s^2 k x^m)
    makes q_j = C(m-1, j) (-1)^j / ((k + j) 4 s^2)."""
    m, k, s = record
    m, k = int(m), Fraction(k)
    scale = 1 / (4 * Fraction(s) ** 2)
    return [scale * math.comb(m - 1, j) * (-1) ** j / (k + j) for j in range(m)]


@cache
def laurent_parts(record: Record) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """(c, a, b): phi_hat = sum_j c_j v^j - b log x = sum_j a_j (w^j - 1) - b log x,
    exactly, j = 1..m-1 (c and a from index 1), for a record (m, k, s) with
    integer m: a manifold's, or the mirror (k, m, s) of one with integer k.

    phi_hat = int_x^1 Q / x^m = G(1) - G(x) / x^(m-1) - b log x, G and b from
    `antiderivative`, and -G(x) / x^(m-1) = sum_j a_j w^j re-expands in
    v = w - 1.
    """
    m = int(record[0])
    g, b = antiderivative(recentre(laurent_numerator(record)), m)
    # a_j for j = 0..m-1, a_0 = 0: G has no x^(m-1) term
    a = [-g[m - 1 - j] for j in range(m)]
    # sum_j a_j ((1 + v)^j - 1) = sum_i c_i v^i, i >= 1: a(1 + v) is the
    # recentred a at s = -v, less its constant a(1)
    c = flip(recentre(a))
    c[0] = Fraction(0)
    return c, a, b


def laurent_moment(record: Record) -> Fraction:
    """int_0^1 mu h dx = -c_m of a record with integer m and k, exactly: with
    mu = x^m D(y), D(y) = sum_(i<k) C(m+i-1, i) y^i, and x^m h = Q(x), it is
    int_0^1 D(y) Q(1 - y) dy = sum_(i,j) C(m+i-1, i) q_j / (i + j + 1), q_j
    of `laurent_numerator`: in integers over L^2, L = lcm(1, ..., m + k)."""
    m, k, s = record
    m, k = int(m), int(k)
    L = math.lcm(*range(1, m + k + 1))
    over = [0] + [L // i for i in range(1, m + k + 1)]  # L / i
    d = [math.comb(m + i - 1, i) for i in range(k)]
    total = sum(
        math.comb(m - 1, j) * (-1) ** j * over[k + j] * sum(di * over[i + j + 1] for i, di in enumerate(d))
        for j in range(m)
    )
    return Fraction(total, L * L) / (4 * Fraction(s) ** 2)


@cache
def odd_parts(k: int) -> tuple:
    """(A, g, R, P, F, c_RP) of S^(2k+1) and RP^(2k+1), exactly; see `green._OddProfile`.

    int_r^pi sin^(2k) = A (pi - r) + cos r sum_j beta_j sin^(2j+1) r, so psi =
    that over sin^(2k) r is A (pi - r) u^k + c P(u) with P(u) = sum_j beta_j
    u^(k-1-j). With G(c) = int_0^c (1 + t^2)^(k-1) dt = c g(c^2), integrating
    psi by parts in c leaves phi_hat = F(pi) + A (pi - r) G(c) - R(c^2) with
    dR/dc = c (A g(v) - P(u)) / u: in u = 1 + v, `antiderivative` integrates
    N(u) / u, N = A g(u - 1) - P(u), and asserts that its log term, the one
    that would not vanish at the antipode, is 0. R(0) = G(0) = 0, so
    F(pi) = phi_hat(pi/2) = int_0^(pi/2) cos^(2k) t G(tan t) dt
    = sum_(i<k) 1 / (2k (2i + 1)). RP^n's mean-zero constant
    c_RP = -(1/V) int phi_hat v reduces to Wallis integrals, which sum to
    -H_k / (4k), H_k the harmonic number.
    """
    A = Fraction(math.comb(2 * k, k), 4**k)
    beta: list[Fraction] = []
    for i in range(k):
        beta = [v * Fraction(2 * i + 1, 2 * i + 2) for v in beta] + [Fraction(1, 2 * i + 2)]
    g = [Fraction(math.comb(k - 1, i), 2 * i + 1) for i in range(k)]
    P = beta[::-1]
    # N(u) = A g(u - 1) - P(u): g(u - 1) is the recentred g(-s) at s = u
    N = [A * gu - p for gu, p in zip(recentre(flip(g)), P)]
    H, log_term = antiderivative(N, 1)
    if log_term:
        raise AssertionError(f"the odd profile of S^{2 * k + 1} keeps a log term")
    # R(v) = (H(1 + v) - H(1)) / 2, H(1 + v) the recentred H at s = -v
    R = [v / 2 for v in flip(recentre(H))]
    R[0] = Fraction(0)
    F = sum(Fraction(1, 2 * i + 1) for i in range(k)) / (2 * k)
    return A, g, R, P, F, -sum(Fraction(1, i) for i in range(1, k + 1)) / (4 * k)


def sphere_cover(record: Record) -> Record:
    """The record (n/2, n/2, 1/2) of S^n from that of S^n or of RP^n,
    (n/2, 1/2, 1), which S^n double-covers."""
    return record[0], record[0], 0.5


def mean_zero_constant(record: Record) -> float:
    """c_m of S^n, of RP^n or of an integer record: -`laurent_moment` on an
    integer record. S^n double-covers RP^n, so
    phi_hat_RP + c_RP = (phi_hat_S(r) + phi_hat_S(pi - r)) / 2 + c_S and
    phi_hat_RP(pi/2) = 0 give c_RP = c_S + phi_hat_S(pi/2): c_S + sum_j c_j +
    b log 2 on even n (x_S = 1/2), the Wallis sum of `odd_parts` on odd n."""
    m, k, _ = record
    sphere = sphere_cover(record)
    if m != int(m):
        *_, F, c_rp = odd_parts(round(m - 0.5))
        return float(c_rp - F if sphere == record else c_rp)
    if k == int(k):
        return float(-laurent_moment(record))
    c, _, b = laurent_parts(sphere)
    return float(sum(c) - laurent_moment(sphere)) + float(b) * math.log(2.0)


@cache
def record_series(record: Record) -> tuple[tuple[float, ...], ...]:
    """(F, H, r) of the record (m, k, s), k >= 1, in ascending powers of t,
    as many terms as its mean t = m / (m + k) needs: F = 2F1(m + k, 1; m + 1; t),
    H = int_0^t F / (4 s^2 m) and r = q F, with mu = t^m (1 - t)^k F / (m B(m, k))
    and q = J / V(a) (`ball_stats` module docstring). The kernels read all
    three, S^n's profile past pi/2 the first two.

    With f_i, h_i, r_i and p_i the coefficients of F, H, r and (1 - t) F^2,
    the first-order equations t (1 - t) F' = m - (m (1 - t) - k t) F and
    t (1 - t) r' + (m (1 - t) - k t) r = t (1 - t) F^2 / (4 s^2 m) give

        f_i = f_(i-1) (m + k + i - 1) / (m + i),    h_i = f_(i-1) / (4 s^2 m i),
        (i + 2m) p_i = (i - 2 + 2m + 2k) p_(i-1) + 2m (k - 1) f_(i-1) / (m + i),
        (i + m) r_i = (i - 1 + m + k) r_(i-1) + p_(i-1) / (4 s^2 m),

    every term positive for k >= 1. They run in 40-digit decimals, so each
    coefficient is its exact value, to some 35 digits, rounded once to a
    double. Every integer-valued factor (m + k + i - 1, m + i, 2m (k - 1),
    ...) is exact at that precision, so a term costs twelve rounded decimal
    operations and three correctly rounded conversions to double, which
    take a third of it: about 2.4 us in CPython 3.11 on an AMD EPYC core
    (CP^2's 101 terms in 0.19 ms, OP^2's 127 in 0.31 ms, RP^400's 15 197 in
    36 ms).

    Each series stops once its last term at the mean, times rho / (1 - rho)
    with rho the larger of the mean and the ratio of its last two terms, is
    below 2^-56 of its sum: the ratios tend to the mean, so that bounds the
    terms dropped.
    """
    m, k, s = record
    mean = m / (m + k)
    with localcontext() as context:
        context.prec = 40
        m, k, four = Decimal(m), Decimal(k), 4 * Decimal(s) ** 2 * Decimal(m)
        # the integer-valued factors of the recurrences, formed once and exact
        f_up, p_up, p_f, two_m = m + k - 1, 2 * m + 2 * k - 2, 2 * m * (k - 1), 2 * m
        f, r, p = Decimal(1), Decimal(0), Decimal(1)
        coeffs: list[list[float]] = [[1.0], [0.0], [0.0]]
        sums = [1.0, 0.0, 0.0]  # of f, h and r at the mean so far
        power, i = 1.0, 0
        while True:
            i += 1
            mi, up = m + i, f_up + i
            h = f / (four * i)
            p, f, r = ((p_up + i) * p + p_f * f / mi) / (two_m + i), f * up / mi, (up * r + p / four) / mi
            power *= mean
            settled = i > 1
            for j, value in enumerate((float(f), float(h), float(r))):
                last, before = value * power, coeffs[j][-1] * power / mean
                coeffs[j].append(value)
                sums[j] += last
                if settled:
                    rho = max(last / before, mean)
                    settled = rho < 1.0 and last * rho / (1.0 - rho) <= 2.0**-56 * sums[j]
            if settled:
                return tuple(map(tuple, coeffs))
