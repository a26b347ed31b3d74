"""Reference values and output checks for the benchmark workloads.

Nothing here calls longpred.  Every reference is rebuilt from the ratio
recursions, closed forms and finite identities of the model, so a check
compares the program against an independent computation or against a
property the method must have, never against a stored copy of an output.

Each ``check_*`` function takes parsed outputs and returns a list of failure
messages; an empty list means every check passed.
"""

import math

import numpy as np
from scipy.linalg import solve_toeplitz

# tolerances, each at least ten times the largest error measured on a
# correct program (see README.md)
TRUNC_RTOL = 1e-8          # certified tail route vs finite quadratic form
ARK_FI_RTOL = 1e-7         # Durbin-Levinson vs closed form, of the excess
RATIO_ATOL = 1e-7          # improvement ratio r in [0, 1)
RATE_BAND = 0.01           # k * trunc / C(d) at the largest k
CD_RTOL = 1e-12            # C(d) against the gamma-function formula
FARIMA_ACOV_RTOL = 1e-8    # the certificate exact_autocov promises
FARIMA_ARK_ATOL = 1e-8     # times sigma(0)
FARIMA_TRUNC_RTOL = 1e-8
MC_SIGMAS = 5.0            # Monte Carlo estimate vs exact value
SLOPE_SIGMAS = 4.0         # fitted slope vs the range the theory allows
ARMA_TRUNC = 1e-18         # |phi|^H below which the ARMA autocovariance stops


# ---------------------------------------------------------------------------
# artifacts


def parse_artifact(data):
    """``#``-header CSV bytes -> (header dict, column names, float rows)."""
    meta, columns, rows = {}, None, []
    for line in data.decode().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return meta, columns, np.asarray(rows, dtype=float)


def column(table, name):
    _, columns, rows = table
    return rows[:, columns.index(name)].tolist()


# ---------------------------------------------------------------------------
# fractional noise


def fi_ar(d, n):
    """AR-infinity coefficients a_0..a_n: a_{j+1} = a_j (j - d) / (j + 1)."""
    j = np.arange(n, dtype=float)
    return np.concatenate([[1.0], np.cumprod((j - d) / (j + 1.0))])


def fi_autocov(d, m, sigma2=1.0):
    """sigma(0..m): sigma(0) = sigma2 Gamma(1-2d) / Gamma(1-d)^2 and
    sigma(h+1) = sigma(h) (h + d) / (h + 1 - d)."""
    s0 = sigma2 * math.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d))
    h = np.arange(m, dtype=float)
    return s0 * np.concatenate([[1.0], np.cumprod((h + d) / (h + 1.0 - d))])


def quadratic_form_excess(a, sig, sigma2):
    """sum_{j,l<=k} a_j a_l sigma(j-l) - sigma2 for a = a_0..a_k."""
    k = a.size - 1
    w = np.convolve(a, a[::-1])[k:]  # w_h = sum_j a_j a_{j+h}
    terms = np.concatenate([[w[0] * sig[0]], 2.0 * w[1:] * sig[1 : k + 1]])
    return math.fsum(terms.tolist() + [-sigma2])


def fi_trunc_excess(d, k, sigma2=1.0):
    return quadratic_form_excess(fi_ar(d, k), fi_autocov(d, k, sigma2), sigma2)


def fi_ark_excess(d, k, sigma2=1.0):
    """v(k) - sigma2 = sigma2 expm1(log Gamma(1-2d) - 2 log Gamma(1-d)
    + sum_{j<=k} log(1 - d^2/(j-d)^2)): the partial correlations of
    fractional noise are d / (j - d)."""
    logs = [math.log1p(-d * d / (j - d) ** 2) for j in range(1, k + 1)]
    return sigma2 * math.expm1(math.fsum(
        [math.lgamma(1.0 - 2.0 * d), -2.0 * math.lgamma(1.0 - d)] + logs))


def c_of_d(d):
    """2 Gamma(1-2d) Gamma(2d) / (Gamma(-d)^2 Gamma(d) Gamma(1+d)), with
    |Gamma(-d)| = Gamma(1-d) / d."""
    return 2.0 * math.exp(math.lgamma(1.0 - 2.0 * d) + math.lgamma(2.0 * d)
                          - 2.0 * (math.lgamma(1.0 - d) - math.log(d))
                          - math.lgamma(d) - math.lgamma(1.0 + d))


# ---------------------------------------------------------------------------
# FARIMA(1, d, 1) by splitting into ARMA(1, 1) and FI(d) parts


def arma11_autocov(phi, theta, H):
    """Autocovariances 0..H of (1 - phi B) X = (1 + theta B) e, var e = 1."""
    g = np.empty(H + 1)
    g[0] = (1.0 + 2.0 * phi * theta + theta * theta) / (1.0 - phi * phi)
    if H:
        g1 = (1.0 + phi * theta) * (phi + theta) / (1.0 - phi * phi)
        g[1:] = g1 * phi ** np.arange(H, dtype=float)
    return g


def farima_autocov(d, phi, theta, sigma2, m):
    """sigma(h) = sum_{|j|<=H} gamma_ARMA(j) sigma_FI(h - j), h = 0..m, with
    H the first lag where |phi|^H < ARMA_TRUNC."""
    H = math.ceil(math.log(ARMA_TRUNC) / math.log(abs(phi)))
    g = arma11_autocov(phi, theta, H)
    g_sym = np.concatenate([g[:0:-1], g])          # lags -H..H
    s = fi_autocov(d, m + H, sigma2)
    s_ext = np.concatenate([s[H:0:-1], s])         # lags -H..m+H
    return np.convolve(s_ext, g_sym, mode="valid")


def farima_ar(d, phi, theta, k):
    """a_0..a_k of (1 - B)^d (1 - phi B) / (1 + theta B)."""
    num = np.convolve(fi_ar(d, k), [1.0, -phi])[: k + 1]
    a = np.empty(k + 1)
    prev = 0.0
    for j in range(k + 1):
        prev = num[j] - theta * prev
        a[j] = prev
    return a


def ark_excess_from_acov(sig, k, sigma2):
    """sigma(0) - rho' Sigma_k^-1 rho - sigma2 by a Levinson Toeplitz solve."""
    rho = sig[1 : k + 1]
    return float(sig[0] - rho @ solve_toeplitz(sig[:k], rho) - sigma2)


# ---------------------------------------------------------------------------
# Monte Carlo references


def sigma0_hat_variance(sig, n):
    """Var of (1/n) sum_t X_t^2 for a zero-mean Gaussian path of length n:
    (2/n^2) sum_{|h|<n} (n - |h|) sigma(h)^2."""
    h = np.arange(1, n, dtype=float)
    return 2.0 / n ** 2 * (n * sig[0] ** 2 + 2.0 * np.sum((n - h) * sig[1:n] ** 2))


def loglog_slope(grid, means, stderrs):
    """Least-squares slope of log mean on log grid and its standard error."""
    means, stderrs = np.asarray(means), np.asarray(stderrs)
    x = np.log(np.asarray(grid, dtype=float))
    xc = x - x.mean()
    w = xc / np.sum(xc * xc)
    slope = float(np.dot(w, np.log(means)))
    return slope, float(math.sqrt(np.sum(w * w * (stderrs / means) ** 2)))


def slope_range(d):
    """Slopes the theory allows on a finite grid: -1 for d < 1/4, between
    -1 and the asymptotic 4d - 2 for d > 1/4."""
    return (-1.0, -1.0) if d < 0.25 else (-1.0, 4.0 * d - 2.0)


# ---------------------------------------------------------------------------
# checks


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def check_fi_risk(inp, out):
    """Outputs of the fi-risk workload against the FI references."""
    fails = []
    for key in ("trunc_lo", "trunc_hi"):
        table = out[key]
        for d, k, est in zip(column(table, "d"), column(table, "k"),
                             column(table, "estimate")):
            ref = fi_trunc_excess(d, int(k))
            if _rel(est, ref) > TRUNC_RTOL:
                fails.append(f"truncation_excess(d={d}, k={int(k)}) = {est!r} "
                             f"vs quadratic form {ref!r}")
    table = out["ark"]
    for d, k, est in zip(column(table, "d"), column(table, "k"),
                         column(table, "estimate")):
        ref = fi_ark_excess(d, int(k))
        if _rel(est, ref) > ARK_FI_RTOL:
            fails.append(f"ark_excess(d={d}, k={int(k)}) = {est!r} vs closed "
                         f"form {ref!r}")
    cd = out["cd"]
    cd_map = dict(zip(column(cd, "d"), column(cd, "C(d)")))
    for d, c in cd_map.items():
        if _rel(c, c_of_d(d)) > CD_RTOL:
            fails.append(f"C({d}) = {c!r} vs gamma formula {c_of_d(d)!r}")
    c_quarter = column(out["cd_quarter"], "C(d)")[0]
    if _rel(c_quarter, 1.0 / (4.0 * math.pi)) > CD_RTOL:
        fails.append(f"C(0.25) = {c_quarter!r}, not 1/(4 pi)")
    table = out["trunc_hi"]
    k_max = int(max(column(table, "k")))
    for d, k, est in zip(column(table, "d"), column(table, "k"),
                         column(table, "estimate")):
        if int(k) == k_max:
            ratio = k * est / cd_map[d]
            if abs(ratio - 1.0) > RATE_BAND:
                fails.append(f"k trunc / C(d) = {ratio!r} at d={d}, k={k_max}")
    table = out["ratio"]
    for k, d, r in zip(column(table, "k"), column(table, "d"),
                       column(table, "r")):
        trunc = fi_trunc_excess(d, int(k))
        ref = (trunc - fi_ark_excess(d, int(k))) / trunc
        if abs(r - ref) > RATIO_ATOL:
            fails.append(f"r(d={d}, k={int(k)}) = {r!r} vs {ref!r}")
    H = out["H"]
    if not np.all(np.isfinite(H)) or np.max(np.abs(H - H.T)) > 1e-12 * np.max(np.abs(H)):
        fails.append("compute_H is not a finite symmetric matrix")
    elif np.linalg.eigvalsh(H).min() <= 0.0:
        fails.append("compute_H is not positive definite")
    return fails


def check_farima_risk(inp, out):
    """Outputs of the farima-risk workload against the splitting references."""
    fails = []
    for name, (d, phi, theta) in inp["models"].items():
        m_max = max(inp["acov_lags"])
        ref = farima_autocov(d, phi, theta, 1.0, m_max)
        for m in inp["acov_lags"]:
            got = out[f"{name}.acov{m}"]
            err = np.max(np.abs(got - ref[: m + 1]) / np.abs(ref[: m + 1]))
            if got.size != m + 1 or err > FARIMA_ACOV_RTOL:
                fails.append(f"{name} exact_autocov(m={m}): max rel error "
                             f"{err:.3g} vs splitting sum")
        for k in inp["ark_orders"]:
            got = out[f"{name}.ark{k}"]
            want = ark_excess_from_acov(ref, k, 1.0)
            if abs(got - want) > FARIMA_ARK_ATOL * ref[0]:
                fails.append(f"{name} ark_excess(k={k}) = {got!r} vs Toeplitz "
                             f"solve {want!r}")
        k = inp["trunc_order"]
        got = out[f"{name}.trunc{k}"]
        want = quadratic_form_excess(farima_ar(d, phi, theta, k), ref, 1.0)
        if _rel(got, want) > FARIMA_TRUNC_RTOL:
            fails.append(f"{name} truncation_excess(k={k}) = {got!r} vs "
                         f"quadratic form {want!r}")
    return fails


def _check_slope(fails, name, table, d):
    grid = column(table, table[1][0])
    slope, se = loglog_slope(grid, column(table, "estimate"),
                             column(table, "stderr"))
    lo, hi = slope_range(d)
    if not lo - SLOPE_SIGMAS * se <= slope <= hi + SLOPE_SIGMAS * se:
        fails.append(f"{name} slope {slope:.4f} +- {se:.4f} outside "
                     f"[{lo}, {hi:.2f}]")


def check_mc_paths(inp, out):
    """Outputs of the mc-paths workload against exact moments and the
    slopes the theory allows."""
    fails = []
    for key in ("coeffcov", "covmoment", "estimation"):
        _check_slope(fails, key, out[key], inp[key]["d"])
    cfg = inp["covmoment"]
    sig = fi_autocov(cfg["d"], max(cfg["grid"]))
    table = out["covmoment"]
    for n, est, se in zip(column(table, "n"), column(table, "estimate"),
                          column(table, "stderr")):
        exact = sigma0_hat_variance(sig, int(n))
        if abs(est - exact) > MC_SIGMAS * se:
            fails.append(f"covmoment n={int(n)}: {est!r} vs exact {exact!r} "
                         f"(stderr {se!r})")
    cfg = inp["innovations"]
    x = out["innovations"]
    sig = fi_autocov(cfg["d"], cfg["n"])
    if x.shape != (cfg["reps"], cfg["n"]):
        fails.append(f"innovations paths have shape {x.shape}")
    else:
        ms = float(np.mean(x * x))
        se = math.sqrt(sigma0_hat_variance(sig, cfg["n"]) / cfg["reps"])
        if abs(ms - sig[0]) > MC_SIGMAS * se:
            fails.append(f"innovations mean square {ms!r} vs sigma(0) "
                         f"{sig[0]!r} (stderr {se!r})")
    return fails
