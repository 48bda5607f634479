"""Reference values computed apart from mflil, and the output checks built on them.

Nothing here imports mflil. Model parameters come from the table below (the
benchmark also checks that the model files the program exports agree with
it), closed forms are written out from their definitions, and the
statistical bands use exact Binomial laws, chi-square quantiles and the
Dvoretzky-Kiefer-Wolfowitz inequality from scipy. Every band is set so that a
correct program fails it with probability at most ALPHA per check, for any
seed; a wrong mean, variance, constant or probability moves the output
outside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy import stats

ALPHA = 1e-7  # false-alarm probability of one statistical band, per tail
SLACK = 1e-9  # float round-off allowed when comparing a statistic to a band edge

BERNOULLI = {"bernoulli_half": 0.5, "bernoulli_quarter": 0.25}
CANTOR = {"cantor_natural": (0.5, 0.5), "cantor_biased": (0.25, 0.75)}
CANTOR_RATIO = 1.0 / 3.0
MARKOV_PI = (5.0 / 6.0, 1.0 / 6.0)
MARKOV_P = ((0.9, 0.1), (0.5, 0.5))
MODEL_NAMES = ("bernoulli_half", "bernoulli_quarter", "cantor_natural",
               "cantor_biased", "markov_chain")


class CheckLog:
    """Counts checks attempted and failed, and keeps the failures' details."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# model files


def model_doc(name: str) -> dict:
    """The model file the benchmark expects for a zoo name."""
    if name in BERNOULLI:
        return {"family": "bernoulli", "p": BERNOULLI[name]}
    if name in CANTOR:
        return {"family": "selfsimilar", "probs": list(CANTOR[name]),
                "ratios": [CANTOR_RATIO, CANTOR_RATIO]}
    return {"family": "markov", "ell": 2, "pi": list(MARKOV_PI),
            "P": [list(r) for r in MARKOV_P]}


def check_model_files(log: CheckLog, model_dir: str) -> None:
    for name in MODEL_NAMES:
        with open(os.path.join(model_dir, f"{name}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        log.check(f"model file {name}", _close_doc(doc, model_doc(name)),
                  f"{doc} differs from {model_doc(name)}")


def _close_doc(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close_doc(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close_doc(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= 1e-15
    return a == b


# ---------------------------------------------------------------------------
# closed forms for the spectrum, dimension, curvature and qb constant


def _markov_lambda_derivs(q: float):
    """Perron eigenvalue of [P_ij^q] for the 2x2 chain and its q-derivatives."""
    (a0, b0), (c0, e0) = MARKOV_P
    la, lb_, lc, le = (math.log(x) for x in (a0, b0, c0, e0))
    a, b, c, e = a0 ** q, b0 ** q, c0 ** q, e0 ** q
    a1, b1, c1, e1 = a * la, b * lb_, c * lc, e * le
    a2, b2, c2, e2 = a * la * la, b * lb_ * lb_, c * lc * lc, e * le * le
    D = (a - e) ** 2 + 4 * b * c
    D1 = 2 * (a - e) * (a1 - e1) + 4 * (b1 * c + b * c1)
    D2 = 2 * (a1 - e1) ** 2 + 2 * (a - e) * (a2 - e2) + 4 * (b2 * c + 2 * b1 * c1 + b * c2)
    s = math.sqrt(D)
    s1 = D1 / (2 * s)
    s2 = D2 / (2 * s) - D1 * D1 / (4 * s ** 3)
    return (a + e + s) / 2, (a1 + e1 + s1) / 2, (a2 + e2 + s2) / 2


def tau_closed(name: str, q: float) -> float:
    """Scale-free tau(q): log_ell of the level-one partition function."""
    if name in BERNOULLI:
        p = BERNOULLI[name]
        return math.log2(p ** q + (1 - p) ** q)
    if name in CANTOR:
        # equal ratios r: sum p_i^q r^tau = 1 gives tau = log_{1/r} sum p_i^q
        return math.log(sum(p ** q for p in CANTOR[name])) / math.log(1 / CANTOR_RATIO)
    return math.log2(_markov_lambda_derivs(q)[0])


def _markov_stationary() -> tuple[float, float]:
    (_, p01), (p10, _) = MARKOV_P
    return p10 / (p01 + p10), p01 / (p01 + p10)


def _entropy(ws) -> float:
    return -sum(w * math.log(w) for w in ws if w > 0)


def markov_entropy_rate() -> float:
    """Entropy rate h of the chain, in nats per step."""
    return sum(pi * _entropy(row) for pi, row in zip(_markov_stationary(), MARKOV_P))


def dimension_closed(name: str) -> float:
    """d = -tau'(1): entropy (rate) over the log of the scale."""
    if name in BERNOULLI:
        p = BERNOULLI[name]
        return _entropy((p, 1 - p)) / math.log(2)
    if name in CANTOR:
        return _entropy(CANTOR[name]) / math.log(1 / CANTOR_RATIO)
    return markov_entropy_rate() / math.log(2)


def delta_closed(name: str) -> float:
    """Dimension of the support: tau(0)."""
    if name in CANTOR:
        return math.log(2) / math.log(1 / CANTOR_RATIO)
    return 1.0


def _log_variance(ws) -> float:
    mean = sum(w * math.log(w) for w in ws)
    return sum(w * (math.log(w) - mean) ** 2 for w in ws)


def tau2_closed(name: str) -> float:
    """tau''(1) of the scale-free spectrum."""
    if name in BERNOULLI:
        p = BERNOULLI[name]
        return _log_variance((p, 1 - p)) / math.log(2)
    if name in CANTOR:
        return _log_variance(CANTOR[name]) / math.log(1 / CANTOR_RATIO)
    lam, lam1, lam2 = _markov_lambda_derivs(1.0)
    return (lam2 / lam - (lam1 / lam) ** 2) / math.log(2)


def summary_sigma2(name: str) -> float:
    """sigma2 as `spectrum` reports it: tau''(1) over ln(ell) on grids, natural otherwise."""
    return tau2_closed(name) if name in CANTOR else tau2_closed(name) / math.log(2)


def qb_constant_closed(name: str) -> float:
    """max over (i, j) of P_ij/pi_j and its inverse; 1 for product measures."""
    if name != "markov_chain":
        return 1.0
    pi = _markov_stationary()
    return max(max(r, 1 / r) for row in MARKOV_P for r in (x / y for x, y in zip(row, pi)))


def dichotomy_case(name: str) -> str:
    d, delta = dimension_closed(name), delta_closed(name)
    return "equivalent_to_Hdelta" if abs(d - delta) <= 1e-9 else "singular_Hd_ac_Pd"


# ---------------------------------------------------------------------------
# exact laws of S_n


class TwoSymbolLaw:
    """S_n = (n - K) c0 + K c1 with K ~ Binomial(n, p1), in one convention's units.

    t(n) = n * t_step is the convention's time, LL its iterated log in base
    `base`, and d the drift of S per unit t.
    """

    def __init__(self, p1: float, c0: float, c1: float, t_step: float, base: float):
        self.p1, self.c0, self.c1, self.t_step, self.base = p1, c0, c1, t_step, base
        self.var1 = p1 * (1 - p1) * (c1 - c0) ** 2
        self.d = ((1 - p1) * c0 + p1 * c1) / t_step

    @classmethod
    def for_model(cls, name: str) -> "TwoSymbolLaw":
        """The law lil-sim's 'auto' convention uses: bits on the binary grid, nats for Cantor."""
        if name in BERNOULLI:
            p = BERNOULLI[name]
            return cls(p, -math.log2(1 - p), -math.log2(p), 1.0, 2.0)
        p0, p1 = CANTOR[name]
        return cls(p1, -math.log(p0), -math.log(p1), math.log(1 / CANTOR_RATIO), math.e)

    def t(self, n: int) -> float:
        return n * self.t_step

    def ll(self, n: int) -> float:
        lb = math.log(self.base)
        return math.log(math.log(self.t(n)) / lb) / lb

    def ratio_scale(self, n: int) -> float:
        return math.sqrt(2 * self.t(n) * self.ll(n))

    def ratio_of_k(self, n: int, k):
        """The normalized ratio (S - d t)/sqrt(2 t LL) of a path with k symbol-1 draws."""
        s = (n - np.asarray(k, dtype=float)) * self.c0 + np.asarray(k, dtype=float) * self.c1
        return (s - self.d * self.t(n)) / self.ratio_scale(n)

    def mean_band(self, n: int, N: int) -> tuple[float, float]:
        """Band for the ensemble mean of the ratio: K summed over N paths is Binomial(N n, p1)."""
        k_mean = stats.binom.ppf([ALPHA, 1 - ALPHA], N * n, self.p1) / N
        ends = sorted(float(self.ratio_of_k(n, k)) for k in k_mean)
        return ends[0] - SLACK, ends[1] + SLACK

    def variance(self, n: int) -> float:
        return n * self.var1 / self.ratio_scale(n) ** 2

    def var_band(self, n: int, N: int) -> tuple[float, float]:
        """Chi-square band for the population variance of N ratios, widened for kurtosis.

        The lower edge is dropped (set to 0) when N paths could all land on the
        most likely lattice point with probability above ALPHA, where the
        chi-square law does not hold.
        """
        v = self.variance(n)
        pq = self.p1 * (1 - self.p1)
        kurt = (1 - 6 * pq) / (n * pq)
        kappa = math.sqrt(max(2 + kurt, 0.0) / 2)
        df = N - 1
        lo = 1 + kappa * (stats.chi2.ppf(ALPHA, df) / df - 1)
        hi = 1 + kappa * (stats.chi2.ppf(1 - ALPHA, df) / df - 1)
        p_max = float(stats.binom.pmf(math.floor((n + 1) * self.p1), n, self.p1))
        if df * math.log(p_max) > math.log(ALPHA) or lo < 0:
            lo = 0.0
        scale = v * df / N
        return scale * lo - SLACK, scale * hi + SLACK

    def ks_exact(self, n: int) -> float:
        """Kolmogorov distance between the standardized law of S_n and N(0, 1)."""
        mu, sd = n * self.p1, math.sqrt(n * self.p1 * (1 - self.p1))
        k = np.arange(max(0, math.floor(mu - 12 * sd)), min(n, math.ceil(mu + 12 * sd)) + 1)
        sign = 1.0 if self.c1 > self.c0 else -1.0
        z = sign * (k - mu) / sd
        pmf = stats.binom.pmf(k, n, self.p1)
        order = np.argsort(z)
        z, pmf = z[order], pmf[order]
        outside = 1.0 - float(pmf.sum())
        cdf = np.cumsum(pmf) + (stats.binom.cdf(k.min() - 1, n, self.p1) if sign > 0
                                else stats.binom.sf(k.max(), n, self.p1))
        phi = stats.norm.cdf(z)
        dist = max(float(np.max(np.abs(cdf - phi))), float(np.max(np.abs(cdf - pmf - phi))))
        return dist + outside

    def ks_band(self, n: int, N: int) -> float:
        """Upper edge for the KS distance of N z-scores: exact lattice distance plus DKW."""
        return self.ks_exact(n) + math.sqrt(math.log(2 / ALPHA) / (2 * N)) + SLACK


def markov_moments(n: int) -> tuple[float, float]:
    """Exact mean and variance of S_n = -log2 m(I_n) for the stationary chain.

    Forward recursion on E[1{X_k = j}], E[S_k 1{X_k = j}] and E[S_k^2 1{X_k = j}].
    """
    pi = _markov_stationary()
    m0 = list(pi)
    m1 = [-p * math.log2(p) for p in pi]
    m2 = [p * math.log2(p) ** 2 for p in pi]
    cost = [[-math.log2(x) for x in row] for row in MARKOV_P]
    for _ in range(n - 1):
        n0, n1, n2 = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        for i in range(2):
            for j in range(2):
                pij, c = MARKOV_P[i][j], cost[i][j]
                n0[j] += pij * m0[i]
                n1[j] += pij * (m1[i] + c * m0[i])
                n2[j] += pij * (m2[i] + 2 * c * m1[i] + c * c * m0[i])
        m0, m1, m2 = n0, n1, n2
    mean = sum(m1)
    return mean, sum(m2) - mean * mean


def markov_mean_formula(n: int) -> float:
    """E[S_n] = H(pi) + (n - 1) h for the stationary chain, in bits."""
    return (_entropy(_markov_stationary()) + (n - 1) * markov_entropy_rate()) / math.log(2)


# ---------------------------------------------------------------------------
# gauge probabilities


def theta_base2_log(n: int) -> float:
    """Natural log of Theta(2^-n) = 2^sqrt(2 n ln ln n), the base-2 correction."""
    return math.log(2) * math.sqrt(2 * n * math.log(math.log(n)))


def gauge_hit_probability(name: str, family: str, epsilon: float, n: int) -> tuple[float, float]:
    """P(m(I_n) <= gauge(2^-n)) for a Bernoulli model, as (strict, non-strict) edge cases.

    The gauge is t^d Theta(t)^(+/-(sigma + epsilon)) with sigma^2 = tau''(1)/ln 2
    (+ for lil_hausdorff, - for lil_packing; a negative epsilon is the CLI's
    --epsilon-sign -1).
    The event is S_n >= d u - e log Theta with S_n in nats and u = n ln 2, that is
    K >= x for the count K ~ Binomial(n, p) of the digit of weight p. When x sits
    on a lattice point within float round-off, the two returned probabilities
    differ and either is accepted.
    """
    p = BERNOULLI[name]
    sigma = math.sqrt(tau2_closed(name) / math.log(2))
    e = (sigma + epsilon) * (1 if family == "lil_hausdorff" else -1)
    c0, c1 = -math.log(1 - p), -math.log(p)
    d_nat = _entropy((p, 1 - p))  # d * ln 2
    x = (n * d_nat - e * theta_base2_log(n) - n * c0) / (c1 - c0)
    lo_k, hi_k = math.ceil(x - 1e-9 * max(1.0, abs(x))), math.ceil(x + 1e-9 * max(1.0, abs(x)))
    return float(stats.binom.sf(hi_k - 1, n, p)), float(stats.binom.sf(lo_k - 1, n, p))


def count_band(p_lo: float, p_hi: float, N: int) -> tuple[int, int]:
    """Counts of N Bernoulli(p) trials that fall outside with probability <= ALPHA per tail."""
    return int(stats.binom.ppf(ALPHA, N, p_lo)), int(stats.binom.ppf(1 - ALPHA, N, p_hi))


# ---------------------------------------------------------------------------
# output files


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digests(outdir: str) -> dict[str, str]:
    """sha256 of every output file of a command except its timestamped manifest."""
    return {f: digest(os.path.join(outdir, f)) for f in sorted(os.listdir(outdir))
            if f != "manifest.json"}


def check_manifest(log: CheckLog, tag: str, outdir: str) -> None:
    man = read_json(os.path.join(outdir, "manifest.json"))
    listed = man.get("outputs", {})
    files = output_digests(outdir)
    log.check(f"{tag} manifest lists every output", set(listed) == set(files),
              f"{sorted(listed)} vs {sorted(files)}")
    for f, h in files.items():
        log.check(f"{tag} manifest sha256 {f}", listed.get(f) == h)


def check_csv_matches(log: CheckLog, tag: str, csv_rows, columns) -> None:
    """Each CSV column equals the summary list it mirrors (17 significant digits)."""
    for j, (name, values) in enumerate(columns):
        col = [r[j] for r in csv_rows]
        ok = len(col) == len(values) and all(
            (math.isnan(a) and math.isnan(float(b))) or abs(a - float(b)) <= 1e-15 * max(1.0, abs(a))
            for a, b in zip(col, values))
        log.check(f"{tag} csv column {name} mirrors summary", ok)


# ---------------------------------------------------------------------------
# per-command checks


def check_lil_sim(log: CheckLog, tag: str, outdir: str, law: TwoSymbolLaw, N: int) -> None:
    """lil-sim statistics of a two-symbol product model, in either mode."""
    doc = read_json(os.path.join(outdir, "summary.json"))
    _, rows = read_csv(os.path.join(outdir, "lilsim.csv"))
    check_csv_matches(log, tag, rows, [("n", doc["checkpoints"]), ("mean", doc["ratio_mean"]),
                                       ("min", doc["ratio_min"]), ("max", doc["ratio_max"]),
                                       ("ks", doc["ks_distance"])])
    log.check(f"{tag} N", doc["N"] == N, f"{doc['N']} != {N}")
    log.check(f"{tag} d", abs(doc["d"] - law.d) <= 1e-12, f"{doc['d']} vs {law.d}")
    for j, n in enumerate(doc["checkpoints"]):
        mean, var, ks = doc["ratio_mean"][j], doc["ratio_var"][j], doc["ks_distance"][j]
        lo, hi = law.mean_band(n, N)
        log.check(f"{tag} n={n} ratio_mean in exact band", lo <= mean <= hi, f"{mean} not in [{lo}, {hi}]")
        lo, hi = law.var_band(n, N)
        log.check(f"{tag} n={n} ratio_var in chi-square band", lo <= var <= hi, f"{var} not in [{lo}, {hi}]")
        band = law.ks_band(n, N)
        log.check(f"{tag} n={n} ks_distance under band", 0 <= ks <= band, f"{ks} > {band}")
        log.check(f"{tag} n={n} min <= mean <= max",
                  doc["ratio_min"][j] <= mean <= doc["ratio_max"][j])


def _finite(xs):
    """Finite entries; the CLI writes non-finite floats as the strings 'nan' and 'inf'."""
    return [float(x) for x in xs if math.isfinite(float(x))]


def check_window(log: CheckLog, tag: str, outdir: str) -> None:
    """Window-mode invariants: the per-level extremes bound the checkpoint extremes."""
    doc = read_json(os.path.join(outdir, "summary.json"))
    w_lo, w_hi = doc["window"]
    inside = [j for j, n in enumerate(doc["checkpoints"]) if w_lo <= n <= w_hi]
    sup_max, inf_min = float(doc["window_sup_max"]), float(doc["window_inf_min"])
    top = max(doc["ratio_max"][j] for j in inside)
    bottom = min(doc["ratio_min"][j] for j in inside)
    log.check(f"{tag} window_sup_max >= every in-window ratio_max", sup_max >= top, f"{sup_max} < {top}")
    log.check(f"{tag} window_inf_min <= every in-window ratio_min", inf_min <= bottom, f"{inf_min} > {bottom}")
    runsup = _finite(doc["runsup_median"])
    log.check(f"{tag} runsup_median defined inside the window", len(runsup) >= len(inside))
    log.check(f"{tag} runsup_median never decreases",
              all(b >= a for a, b in zip(runsup, runsup[1:])), f"{runsup}")


def check_gauge_bernoulli(log: CheckLog, tag: str, outdir: str, name: str, family: str,
                          epsilon: float, N: int) -> None:
    doc = read_json(os.path.join(outdir, "summary.json"))
    _, rows = read_csv(os.path.join(outdir, "gauge.csv"))
    check_csv_matches(log, tag, rows, [("n", doc["checkpoints"]), ("fraction", doc["fractions"]),
                                       ("hit_ever", doc["hit_by"])])
    for j, n in enumerate(doc["checkpoints"]):
        p_lo, p_hi = gauge_hit_probability(name, family, epsilon, n)
        lo, hi = count_band(p_lo, p_hi, N)
        count = doc["fractions"][j] * N
        log.check(f"{tag} n={n} gauge fraction in exact binomial band",
                  lo - 1e-6 <= count <= hi + 1e-6,
                  f"count {count} not in [{lo}, {hi}] (p={p_lo:.6g}..{p_hi:.6g})")
    check_hit_by(log, tag, doc, N)


def check_hit_by(log: CheckLog, tag: str, doc: dict, N: int) -> None:
    fr, hb = doc["fractions"], doc["hit_by"]
    log.check(f"{tag} fractions are counts over N",
              all(abs(f * N - round(f * N)) <= 1e-6 and 0 <= f <= 1 for f in fr + hb))
    log.check(f"{tag} hit_by non-decreasing", all(b >= a for a, b in zip(hb, hb[1:])), f"{hb}")
    log.check(f"{tag} hit_by >= fractions", all(h >= f for h, f in zip(hb, fr)), f"{hb} vs {fr}")
    log.check(f"{tag} hit_by starts at the first fraction", hb[0] == fr[0])
    log.check(f"{tag} hit_ever is the last hit_by", doc["hit_ever"] == hb[-1])


MARKOV_Z = 6.0  # normal band for the chain's ensemble mean, in exact standard errors


def check_markov_mean(log: CheckLog, tag: str, outdir: str, N: int) -> None:
    """Ensemble mean of S_n against H(pi) + (n-1) h, in bits (the chain's 'auto' units)."""
    doc = read_json(os.path.join(outdir, "summary.json"))
    d = dimension_closed("markov_chain")
    log.check(f"{tag} d", abs(doc["d"] - d) <= 1e-12, f"{doc['d']} vs {d}")
    for j, n in enumerate(doc["checkpoints"]):
        mean_s, var_s = markov_moments(n)
        formula = markov_mean_formula(n)
        log.check(f"{tag} n={n} recursion mean equals H(pi)+(n-1)h",
                  abs(mean_s - formula) <= 1e-9 * max(1.0, formula))
        scale = math.sqrt(2 * n * math.log2(math.log2(n)))
        s_bar = d * n + doc["ratio_mean"][j] * scale
        se = math.sqrt(var_s / N)
        log.check(f"{tag} n={n} mean S_n within {MARKOV_Z} standard errors",
                  abs(s_bar - formula) <= MARKOV_Z * se + SLACK,
                  f"mean S {s_bar} vs {formula} (se {se})")


def check_spectrum(log: CheckLog, tag: str, outdir: str, name: str, q_grid) -> int:
    """Every tau row against the closed form, and the summary constants. Returns the row count."""
    header, rows = read_csv(os.path.join(outdir, "spectrum.csv"))
    doc = read_json(os.path.join(outdir, "summary.json"))
    log.check(f"{tag} header", header == ["q", "tau"], f"{header}")
    log.check(f"{tag} q grid", len(rows) == len(q_grid)
              and all(abs(r[0] - q) <= 1e-12 for r, q in zip(rows, q_grid)))
    log.check(f"{tag} rows field", doc["rows"] == len(rows))
    worst = max(abs(tau - tau_closed(name, q)) for q, tau in rows)
    log.check(f"{tag} tau rows match the closed form", worst <= 1e-9, f"max |diff| {worst:.3e}")
    by_q = {round(q, 9): tau for q, tau in rows}
    delta = delta_closed(name)
    log.check(f"{tag} tau(1) = 0", abs(by_q[1.0]) <= 1e-12, f"{by_q[1.0]}")
    log.check(f"{tag} tau(0) = delta", abs(by_q[0.0] - delta) <= 1e-12, f"{by_q[0.0]} vs {delta}")
    log.check(f"{tag} summary delta", abs(doc["delta"] - delta) <= 1e-12, f"{doc['delta']} vs {delta}")
    d = dimension_closed(name)
    log.check(f"{tag} summary d", abs(doc["d"] - d) <= 1e-10, f"{doc['d']} vs {d}")
    s2 = summary_sigma2(name)
    tol = 1e-6 if name == "markov_chain" else 1e-12  # the chain's sigma2 is a Richardson estimate
    log.check(f"{tag} summary sigma2", abs(doc["sigma2"] - s2) <= tol, f"{doc['sigma2']} vs {s2}")
    return len(rows)


def check_qb(log: CheckLog, tag: str, outdir: str, name: str) -> None:
    doc = read_json(os.path.join(outdir, "qb.json"))
    c = qb_constant_closed(name)
    log.check(f"{tag} C_hat", abs(doc["C_hat"] - c) <= 1e-12 * c, f"{doc['C_hat']} vs {c}")
    log.check(f"{tag} d and delta", abs(doc["d"] - dimension_closed(name)) <= 1e-10
              and abs(doc["delta"] - delta_closed(name)) <= 1e-12)
    case = dichotomy_case(name)
    log.check(f"{tag} dichotomy case", doc["case"] == case, f"{doc['case']} vs {case}")


def check_oracles(log: CheckLog, tag: str, outdir: str, rc: int) -> None:
    if log.check(f"{tag} exits 0", rc == 0, f"exit {rc}"):
        rows = read_json(os.path.join(outdir, "oracle_checks.json"))
        log.check(f"{tag} every oracle check ok", rows and all(r["ok"] for r in rows))
