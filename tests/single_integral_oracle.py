"""K and Theta on S^n and RP^n from their single-integral forms in mpmath.

Every integral is `mpmath.quad` at 30 digits, with the ball volumes from
`mpmath.betainc` at the pole nearer to the radius, so no difference of
volumes cancels. Nothing here calls greenlab but its volume: the library's
closed kernels are compared against these values.

With H = int_0^a V(u)/v(u) du, J = int_0^a V(u)^2/v(u) du and
M = int_0^a V(u) psi(u) du, psi = (V - V(u))/v(u):

    K V V(a) = V(a) H - J                      (a <= D/2, or RP^n)
             = M - (V - V(a)) H                 (past D/2 on S^n; M(D) at D)
    Theta V  = int_a^D psi (V - V(r))/V dr + (V - V(a)) M / (V V(a)),

the last from Theta = phi(a) + M / (V V(a)), phi = (phi_hat + c_m)/V and
c_m = -M(D)/V. Both of Theta's terms are positive, so it does not cancel
near D, where it vanishes.

H's integrand grows like (D - u)^(1-n) on S^n, which one Gauss-Legendre
call over [0, a] near D does not resolve: the integrals from 0 are cut at
the radii and at 0.5, 0.9 and 0.99 D, where these lie below the last radius.
"""

from __future__ import annotations

import functools

import mpmath as mp

from greenlab.manifold import Family, ManifoldSpec

DPS = 30


@functools.lru_cache(maxsize=None)
def kernels(spec: ManifoldSpec, radii: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """(K, Theta) at ascending radii in (0, D], each rounded once."""
    with mp.workdps(DPS):
        h = mp.mpf(spec.n) / 2
        sphere_v = 2 * mp.pi ** (h + mp.mpf(1) / 2) / mp.gamma(h + mp.mpf(1) / 2)
        omega = 2 * mp.pi**h / mp.gamma(h)
        rp = spec.family is Family.REAL_PROJ
        V = sphere_v / 2 if rp else sphere_v
        D = mp.pi / 2 if rp else mp.pi
        cache = {}

        def volumes(u):
            """(V(u), V - V(u), v(u)): on RP^n, V(u) and v(u) are the sphere's for u <= pi/2."""
            if u not in cache:
                if u < mp.pi / 2:
                    inner = mp.betainc(h, h, 0, mp.sin(u / 2) ** 2, regularized=True)
                    outer = 1 - inner
                else:
                    outer = mp.betainc(h, h, 0, mp.cos(u / 2) ** 2, regularized=True)
                    inner = 1 - outer
                # V_RP - V(u) = V_S / 2 - V_S inner
                rest = sphere_v * (outer - inner) / 2 if rp else sphere_v * outer
                cache[u] = (sphere_v * inner, rest, omega * mp.sin(u) ** (spec.n - 1))
            return cache[u]

        def value(part, u):
            vol, rest, area = volumes(u)
            if part == "H":
                return vol / area
            if part == "J":
                return vol**2 / area
            return vol * rest / area if part == "M" else rest**2 / (area * V)

        def integral(part, lo, hi):
            """int_lo^hi of one integrand, scaled by its value at an inner point:
            mp.quad's tolerance is absolute, and the integrands span hundreds of decades."""
            if hi <= lo:
                return mp.mpf(0)
            scale = value(part, (lo + 3 * hi) / 4)
            return scale * mp.quad(lambda u: value(part, u) / scale, [lo, hi], method="gauss-legendre")

        a = [mp.mpf(r) for r in radii]
        if a[-1] >= D:
            a[-1] = D
        cuts = [D * f for f in (mp.mpf(1) / 2, mp.mpf(9) / 10, mp.mpf(99) / 100) if D * f < a[-1]]
        edges = sorted({mp.mpf(0), *a, *cuts})
        # H and J diverge at D on S^n, where K needs neither
        pieces = {
            part: [
                integral(part, lo, hi) if hi < D or rp or part == "M" else mp.nan
                for lo, hi in zip(edges, edges[1:])
            ]
            for part in ("H", "J", "M")
        }
        # int_a^D psi (V - V(r)) / V, from D downwards
        tail = [integral("T", lo, hi) for lo, hi in zip(a, a[1:] + [D])]
        k_out, theta_out = [], []
        H = J = M = mp.mpf(0)
        totals = [mp.fsum(tail[i:]) for i in range(len(a))]
        done = 0  # the pieces summed into H, J and M
        for i, r in enumerate(a):
            while done < len(edges) - 1 and edges[done + 1] <= r:
                H, J, M = H + pieces["H"][done], J + pieces["J"][done], M + pieces["M"][done]
                done += 1
            vol, rest, _ = volumes(r) if r < D else (V, mp.mpf(0), None)
            if rp or r <= D / 2:
                k = (vol * H - J) / (V * vol)
            else:
                k = (M - (rest * H if r < D else 0)) / (V * vol)
            k_out.append(float(k))
            theta_out.append(float((totals[i] + rest * M / (V * vol)) / V))
        return k_out, theta_out
