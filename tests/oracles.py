"""Independent oracles used across the test suite.

Everything here is deliberately written the slow, obvious way (finite
differences, exhaustive enumeration, Monte Carlo) and never calls the code
paths it checks.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import expit

from akisub import autodiff as ad
from akisub import cohort, nn
from akisub.autodiff import Tensor
from akisub.baselines import LrParams


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_difference_grads(loss_fn, params: dict[str, Tensor], step: float = 1e-5):
    """Central finite differences of a scalar loss w.r.t. every entry of every param.

    `loss_fn(params) -> float` must be a pure function of the parameter dict.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            plus = p.data.copy()
            plus.ravel()[i] = orig + step
            minus = p.data.copy()
            minus.ravel()[i] = orig - step
            lp = loss_fn({**params, name: Tensor(plus, requires_grad=True)})
            lm = loss_fn({**params, name: Tensor(minus, requires_grad=True)})
            g.ravel()[i] = (lp - lm) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def scaled_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """Largest absolute difference relative to the largest reference entry."""
    scale = float(np.max(np.abs(reference), initial=0.0))
    diff = float(np.max(np.abs(np.asarray(actual) - reference), initial=0.0))
    return diff / scale if scale else diff


# ---------------------------------------------------------------------------
# padded, masked LSTM layer
# ---------------------------------------------------------------------------

def lstm_sequence_reference(x, lengths, params: nn.LstmParams) -> Tensor:
    """`nn.lstm_sequence` composed step by step from `nn.lstm_cell` on the tape.

    Every row runs all T steps, padding included, and a one-hot mask keeps the
    hidden state of each row's last valid step.
    """
    x = ad.as_tensor(x)
    n, steps, _ = x.shape
    last = np.zeros((n, steps))
    last[np.arange(n), np.asarray(lengths) - 1] = 1.0
    h = c = out = Tensor(np.zeros((n, params.hidden)))
    for t in range(steps):
        x_t = ad.reshape(ad.slice_axis(x, t, t + 1, axis=1), (n, -1))
        h, c = nn.lstm_cell(x_t, h, c, params)
        out = ad.add(out, ad.mul(h, Tensor(last[:, t:t + 1])))
    return out


# ---------------------------------------------------------------------------
# separate training and inference loops of the three neural models
# ---------------------------------------------------------------------------

def case_probability_loss_reference(probs: Tensor, batch) -> Tensor:
    p_case = ad.reshape(ad.slice_axis(probs, 1, 2, axis=1), (len(batch),))
    labels = np.array([s.label for s in batch], dtype=np.float64)
    return ad.cross_entropy(p_case, labels)


def memnet_init_reference(rng, hyper, vocab_size: int, feature_dim: int,
                          static_dim: int) -> dict[str, Tensor]:
    bottom = nn.init_lstm(rng, hyper.word_emb_dim, hyper.bottom_hidden)
    top = nn.init_lstm(rng, hyper.bottom_hidden, hyper.emb_dim)
    return {
        "word_emb": nn.uniform_init(rng, vocab_size, hyper.word_emb_dim),
        "bottom_wx": bottom.wx, "bottom_wh": bottom.wh, "bottom_b": bottom.b,
        "top_wx": top.wx, "top_wh": top.wh, "top_b": top.b,
        "null_note": nn.uniform_init(rng, 1, hyper.bottom_hidden),
        "A": nn.uniform_init(rng, feature_dim, hyper.emb_dim),
        "B": nn.uniform_init(rng, feature_dim, hyper.emb_dim),
        "H": nn.uniform_init(rng, hyper.emb_dim, hyper.emb_dim),
        "W_static": nn.uniform_init(rng, static_dim, hyper.static_proj_dim),
        "w_out": nn.uniform_init(rng, hyper.representation_dim, 2),
    }


def hielstm_init_reference(rng, hyper, vocab_size: int) -> dict[str, Tensor]:
    bottom = nn.init_lstm(rng, hyper.word_emb_dim, hyper.bottom_hidden)
    top = nn.init_lstm(rng, hyper.bottom_hidden, hyper.emb_dim)
    return {
        "word_emb": nn.uniform_init(rng, vocab_size, hyper.word_emb_dim),
        "bottom_wx": bottom.wx, "bottom_wh": bottom.wh, "bottom_b": bottom.b,
        "top_wx": top.wx, "top_wh": top.wh, "top_b": top.b,
        "null_note": nn.uniform_init(rng, 1, hyper.bottom_hidden),
        "w_out": nn.uniform_init(rng, hyper.emb_dim, 2),
    }


def memnet_train_reference(prepared, hyper, vocab_size: int, forward):
    """The memory network's own Adam loop: one generator draws the parameters,
    then the shuffles. `forward(params, batch, hyper)` gives (probs, v)."""
    rng = np.random.default_rng(hyper.seed)
    params = memnet_init_reference(rng, hyper, vocab_size, prepared[0].tensor.shape[1],
                                   prepared[0].static.shape[0])
    opt = nn.Adam(lr=hyper.lr)
    history = []
    n = len(prepared)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = [prepared[i] for i in order[start:start + hyper.batch_size]]
            with ad.Tape() as tape:
                loss = case_probability_loss_reference(forward(params, batch, hyper)[0],
                                                       batch)
            grads = ad.backward(tape, loss)
            params = opt.step(params, grads)
            total += loss.item()
        history.append(total / n)
    return params, history


def baseline_train_loop_reference(prepared, hyper, params, forward):
    """The neural baselines' Adam loop, shuffling with a generator seeded
    `hyper.seed + 1`; `forward(params, batch, hyper)` gives the probabilities."""
    rng = np.random.default_rng(hyper.seed + 1)
    opt = nn.Adam(lr=hyper.lr)
    history = []
    n = len(prepared)
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = [prepared[i] for i in order[start:start + hyper.batch_size]]
            with ad.Tape() as tape:
                loss = case_probability_loss_reference(forward(params, batch, hyper), batch)
            grads = ad.backward(tape, loss)
            params = opt.step(params, grads)
            total += loss.item()
        history.append(total / n)
    return params, history


def params_checksum(params: dict[str, Tensor]) -> str:
    """SHA-256 over every parameter's name and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


def batched_rows_reference(rows_of, prepared, width: int | None = None) -> np.ndarray:
    """`rows_of(batch)` over batches of 256 stays, written into a preallocated
    (n,) or (n, width) array."""
    out = np.zeros((len(prepared),) if width is None else (len(prepared), width))
    for start in range(0, len(prepared), 256):
        batch = prepared[start:start + 256]
        out[start:start + len(batch)] = rows_of(batch)
    return out


# ---------------------------------------------------------------------------
# brute-force KDIGO
# ---------------------------------------------------------------------------

def brute_force_kdigo(scr_points, urine_points, baseline_value, baseline_end,
                      window):
    """Enumerate every measurement pair and every contiguous low-urine span.

    Returns (is_case, onset, rule, stage) where stage is None for controls.
    Rules follow the KDIGO clauses: delta >= 0.3 mg/dL within 48 h, ratio >= 1.5x
    baseline with the baseline measured within the prior 7 days, and sustained
    low urine rate on a piecewise-constant reading between observations.
    """
    lo, hi = window
    firings = []  # (onset, priority, rule)

    scr = sorted(scr_points)
    urine = sorted(urine_points)

    # clause 1: all pairs <= 48 h apart with rise >= 0.3, firing at the later time
    for i in range(len(scr)):
        for j in range(len(scr)):
            ti, vi = scr[i]
            tj, vj = scr[j]
            if ti < tj and tj - ti <= 48.0 and vj - vi >= 0.3 and lo <= tj <= hi:
                firings.append((tj, 0, "scr_delta_48h"))

    # clause 2: value >= 1.5x baseline, baseline within the prior 7 days
    for t, v in scr:
        if lo <= t <= hi and v >= 1.5 * baseline_value and t - baseline_end <= 168.0:
            firings.append((t, 1, "scr_ratio_7d"))

    # clause 3: contiguous low spans, value persisting until the next observation
    for dur, thresh in ((6.0, 0.5),):
        for onset in _low_span_onsets(urine, thresh, dur, lo, hi):
            firings.append((onset, 2, "urine_6h"))

    if not firings:
        return False, None, None, None

    firings.sort(key=lambda f: (f[0], f[1]))
    onset, _, rule = firings[0]

    # staging: maximum over every clause that fires anywhere in the window
    stage = 1
    for t, v in scr:
        if lo <= t <= hi and t - baseline_end <= 168.0:
            if v >= 3.0 * baseline_value:
                stage = max(stage, 3)
            elif v >= 2.0 * baseline_value:
                stage = max(stage, 2)
    # absolute rise reaching >= 4.0 within 48 h
    for i in range(len(scr)):
        for j in range(len(scr)):
            ti, vi = scr[i]
            tj, vj = scr[j]
            if ti < tj and tj - ti <= 48.0 and vj >= 4.0 and vj - vi >= 0.3 and lo <= tj <= hi:
                stage = max(stage, 3)
    if _max_low_span(urine, 0.5, lo, hi) >= 12.0:
        stage = max(stage, 2)
    if _max_low_span(urine, 0.3, lo, hi) >= 24.0:
        stage = max(stage, 3)
    if _max_low_span(urine, 0.01, lo, hi) >= 12.0:
        stage = max(stage, 3)
    return True, onset, rule, stage


def _clipped_spans(urine, thresh, lo, hi):
    """All maximal spans where the piecewise-constant rate is < thresh, clipped to [lo, hi]."""
    spans = []
    run_start = None
    prev_t = None
    for t, v in urine:
        if v < thresh:
            if run_start is None:
                run_start = t
        else:
            if run_start is not None:
                spans.append((run_start, t))  # low value persists until this observation
                run_start = None
        prev_t = t
    if run_start is not None and prev_t is not None:
        spans.append((run_start, prev_t))  # no extrapolation beyond the last observation
    clipped = []
    for a, b in spans:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            clipped.append((a2, b2))
    return clipped


def _low_span_onsets(urine, thresh, dur, lo, hi):
    onsets = []
    for a, b in _clipped_spans(urine, thresh, lo, hi):
        if b - a >= dur:
            onsets.append(a + dur)
    return onsets


def _max_low_span(urine, thresh, lo, hi):
    spans = _clipped_spans(urine, thresh, lo, hi)
    if not spans:
        return 0.0
    return max(b - a for a, b in spans)


def _pairs(series) -> list[tuple[float, float]]:
    """An EventSeries as a list of (offset, value) tuples of Python floats."""
    return [(t, v) for t, v in series.points.tolist()]


def exclusions_reference(stays, t1_hours: float, t2_days: float = 7.0):
    """`kdigo.apply_exclusions` over (offset, value) tuples, with every label from
    `brute_force_kdigo`.

    Returns ([(stay_id, is_case, onset, rule, stage)], [(stay_id, reason)]), where
    stage is None for controls.
    """
    horizon = t1_hours + t2_days * 24.0
    kept, excluded = [], []
    for stay in stays:
        scr = _pairs(stay.lab_series["creatinine"])
        urine = _pairs(stay.lab_series["urine_rate"])
        if not scr and not urine:
            excluded.append((stay.stay_id, "no_renal_data"))
            continue
        # the baseline is the first creatinine; without one the ratio clause never fires
        bend, bval = scr[0] if scr else (0.0, float("inf"))
        if brute_force_kdigo(scr, urine, bval, bend, (0.0, t1_hours))[0]:
            excluded.append((stay.stay_id, "aki_in_observation_window"))
            continue
        if not any(t1_hours < t <= horizon for t, _ in scr + urine):
            excluded.append((stay.stay_id, "missing_renal_data_in_prediction_window"))
            continue
        is_case, onset, rule, stage = brute_force_kdigo(scr, urine, bval, bend,
                                                        (t1_hours, horizon))
        kept.append((stay.stay_id, is_case, onset, rule, stage))
    return kept, excluded


# ---------------------------------------------------------------------------
# per-point loops over (offset, value) tuples: the binning and summary features
# ---------------------------------------------------------------------------

def bin_events_reference(stay, variables, t1_hours: float):
    """(values, mask) of `features.bin_events`: each 2-hour bin's sum built by
    adding the in-window points one at a time, in series order."""
    t = int(t1_hours / 2.0)
    values = np.zeros((t, len(variables)))
    mask = np.zeros((t, len(variables)))
    for col, var in enumerate(variables):
        sums = np.zeros(t)
        counts = np.zeros(t)
        for offset, value in _pairs(stay.series(var)):
            if 0.0 <= offset < t1_hours:
                j = int(offset // 2.0)
                sums[j] += value
                counts[j] += 1
        observed = counts > 0
        values[observed, col] = sums[observed] / counts[observed]
        mask[:, col] = observed
    return values, mask


def summary_reference(stay, variables, t1_hours: float, fill_means=None):
    """(values, imputed) of the 7 statistics per variable of
    `features.summarize_for_baselines`, one variable at a time over tuples."""
    t = int(t1_hours / 2.0)
    values, imputed = [], []
    for var in variables:
        obs = [(off, v) for off, v in _pairs(stay.series(var)) if 0.0 <= off < t1_hours]
        if obs:
            vals = np.array([v for _, v in obs])
            sums = np.zeros(t)
            counts = np.zeros(t)
            for off, v in obs:
                j = int(off // 2.0)
                sums[j] += v
                counts[j] += 1
            idx = np.nonzero(counts)[0]
            slope = 0.0
            if len(idx) >= 2:
                y = sums[idx] / counts[idx]
                xc = idx.astype(float) - idx.astype(float).mean()
                slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
            values += [vals[0], vals[-1], vals.mean(), vals.min(), vals.max(), slope,
                       float(len(obs))]
            imputed += [False] * 7
        else:
            fill = 0.0 if fill_means is None else fill_means.get(var, 0.0)
            values += [fill] * 5 + [0.0, 0.0]
            imputed += [True] * 5 + [False] * 2
    return np.array(values), np.array(imputed)


def fit_scaling_reference(tensors, variables):
    """(mean, vmin, vmax) rows of `features.fit_scaling`: each variable's observed
    cells concatenated stay by stay, one array per stay."""
    out = np.zeros((3, len(variables)))
    for col in range(len(variables)):
        cells = np.concatenate([t.values[t.mask[:, col] > 0, col] for t in tensors])
        out[:, col] = cells.mean(), cells.min(), cells.max()
    return out


def first_day_mean_reference(stay, var: str, egfr):
    """`stats._first_day_mean` for a time-series variable (or "egfr", computed with
    `egfr(scr, age, sex, ethnicity)`), as a loop over tuples."""
    if var == "egfr":
        vals = [egfr(v, stay.age, stay.sex, stay.ethnicity)
                for t, v in _pairs(stay.lab_series["creatinine"]) if t <= 24.0 and v > 0]
    else:
        vals = [v for t, v in _pairs(stay.series(var)) if t <= 24.0]
    return float(np.mean(vals)) if vals else None


# ---------------------------------------------------------------------------
# a test-only tape primitive
# ---------------------------------------------------------------------------

def exp(a) -> Tensor:
    """e**a, recorded on the active tape; the package itself needs no exp."""
    a = ad.as_tensor(a)
    y = np.exp(a.data)
    return ad._record((a,), Tensor(y), lambda g: (g * y,))


# ---------------------------------------------------------------------------
# out-of-place Adam
# ---------------------------------------------------------------------------

def adam_step_reference(param: np.ndarray, g: np.ndarray, m: np.ndarray, s: np.ndarray,
                        k: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                        eps: float = 1e-8):
    """One bias-corrected Adam step written out of place; returns (param, m, s)."""
    k = k + 1
    m = beta1 * m + (1.0 - beta1) * g
    s = beta2 * s + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** k)
    s_hat = s / (1.0 - beta2 ** k)
    return param - lr * m_hat / (np.sqrt(s_hat) + eps), m, s


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def lr_loss(params: LrParams, features: np.ndarray, labels) -> float:
    """The objective lr_train minimizes (mean NLL + 0.5*l2*||theta||^2)."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(expit(X @ params.weights + params.bias), 1e-12, 1 - 1e-12)
    nll = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    reg = 0.5 * params.l2_strength * (params.weights @ params.weights + params.bias ** 2)
    return float(nll + reg)


def lr_gd_reference(features: np.ndarray, labels, l2: float = 1e-3, epochs: int = 800,
                    lr: float = 0.5) -> LrParams:
    """Full-batch gradient descent on lr_loss's objective, with the L2 term applied
    as a proximal shrinkage step; a fixed number of epochs, no convergence test."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    shrink = 1.0 / (1.0 + lr * l2)
    for _ in range(epochs):
        p = expit(X @ w + b)
        err = (p - y) / n
        w = (w - lr * (X.T @ err)) * shrink
        b = (b - lr * err.sum()) * shrink
    return LrParams(weights=w, bias=b, l2_strength=l2)


# ---------------------------------------------------------------------------
# Monte Carlo / permutation oracles for p-values
# ---------------------------------------------------------------------------

def mc_chi2_sf(x: float, dof: int, draws: int = 100_000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    samples = (rng.standard_normal((draws, dof)) ** 2).sum(axis=1)
    return float((samples >= x).mean())


def mc_f_sf(x: float, d1: int, d2: int, draws: int = 100_000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    num = (rng.standard_normal((draws, d1)) ** 2).sum(axis=1) / d1
    den = (rng.standard_normal((draws, d2)) ** 2).sum(axis=1) / d2
    return float((num / den >= x).mean())


def _f_statistic(pooled: np.ndarray, sizes: list[int]) -> float:
    grand = pooled.mean()
    pos, ssb, ssw = 0, 0.0, 0.0
    for m in sizes:
        g = pooled[pos:pos + m]
        ssb += m * (g.mean() - grand) ** 2
        ssw += ((g - g.mean()) ** 2).sum()
        pos += m
    k, n = len(sizes), len(pooled)
    return (ssb / (k - 1)) / (ssw / (n - k))


def permutation_anova_p(groups, draws: int = 100_000, seed: int = 0) -> float:
    """Fraction of pooled-value permutations whose F reaches the observed F."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    sizes = [len(g) for g in arrays]
    pooled = np.concatenate(arrays)
    observed = _f_statistic(pooled, sizes)
    rng = np.random.default_rng(seed)
    n = len(pooled)
    hits = 0
    block = 2000
    done = 0
    while done < draws:
        m = min(block, draws - done)
        idx = np.argsort(rng.random((m, n)), axis=1)
        perms = pooled[idx]
        k = len(sizes)
        grand = perms.mean(axis=1, keepdims=True)
        ssb = np.zeros(m)
        ssw = np.zeros(m)
        pos = 0
        for size in sizes:
            g = perms[:, pos:pos + size]
            gm = g.mean(axis=1, keepdims=True)
            ssb += size * ((gm - grand) ** 2).ravel()
            ssw += ((g - gm) ** 2).sum(axis=1)
            pos += size
        f = (ssb / (k - 1)) / (ssw / (n - k))
        hits += int((f >= observed - 1e-12).sum())
        done += m
    return hits / draws


def mc_nested_f_p(observed_f: float, reduced: np.ndarray, full: np.ndarray,
                  draws: int = 100_000, seed: int = 0) -> float:
    """Null distribution of the nested-linear-model F via pure-noise responses."""
    n = reduced.shape[0]
    d1 = full.shape[1] - reduced.shape[1]
    d2 = n - full.shape[1]
    m_r = np.eye(n) - reduced @ np.linalg.pinv(reduced)
    m_f = np.eye(n) - full @ np.linalg.pinv(full)
    rng = np.random.default_rng(seed)
    hits = 0
    block = 2000
    done = 0
    while done < draws:
        m = min(block, draws - done)
        Y = rng.standard_normal((m, n))
        rss_r = np.einsum("ij,jk,ik->i", Y, m_r, Y)
        rss_f = np.einsum("ij,jk,ik->i", Y, m_f, Y)
        f = ((rss_r - rss_f) / d1) / (rss_f / d2)
        hits += int((f >= observed_f - 1e-12).sum())
        done += m
    return hits / draws


# ---------------------------------------------------------------------------
# metric, clustering and generator oracles
# ---------------------------------------------------------------------------

def planted_stage(subtype: int) -> int:
    """KDIGO stage the generator plants for an archetype (1->1, 2->3, 3->2)."""
    return {1: 1, 2: 3, 3: 2}[subtype]


def generate_cohort_reference(config) -> list:
    """The cohort as one in-order walk over the stays generates it: the patient
    assignment is drawn as the walk goes, and a repeat stay takes the demographics
    its patient's first stay drew."""
    assign_rng = np.random.default_rng([config.seed, 0xA55])
    stays = []
    patient_counter = -1
    prev_patient = None
    for i in range(config.n_stays):
        rng = np.random.default_rng([config.seed, 1, i])
        repeat = prev_patient is not None and assign_rng.random() < cohort._REPEAT_STAY_P
        if repeat:
            patient_id, demo = prev_patient
            stay_no = 2
        else:
            patient_counter += 1
            patient_id = f"p{patient_counter:05d}"
            demo = None
            stay_no = 1
        is_case = rng.random() < config.case_fraction
        subtype = 1 + cohort._pick(rng, cohort._SUBTYPE_CDF) if is_case else None
        profile, note_arche = cohort._draw_flavor(rng, is_case, subtype)
        if demo is None:
            demo = cohort._draw_demographics(rng, profile)
            prev_patient = (patient_id, demo)
        else:
            prev_patient = None  # at most two stays per patient
        stays.append(cohort._generate_stay(rng, f"s{i:05d}-{stay_no}", patient_id, demo,
                                           is_case, subtype, profile, note_arche))
    return stays


def pairwise_auc(scores, labels) -> float:
    """O(n^2) probability that a random positive outranks a random negative; ties 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def tsne_kl_reference(X, Y, perplexity: float) -> float:
    """KL(P || Q) of the 2-D layout `Y` of the rows of `X`, summed over pairs i != j.

    P symmetrizes Gaussian conditionals whose entropy is log(perplexity), each
    precision found by bisection on its logarithm; Q is the normalized Student-t
    kernel on `Y`."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n = len(X)
    off = ~np.eye(n, dtype=bool)
    D = ((X[:, None] - X[None]) ** 2).sum(axis=-1)
    cond = np.zeros((n, n))
    for i in range(n):
        d = D[i, off[i]]
        lo, hi = -50.0, 50.0  # log precision
        for _ in range(200):
            mid = (lo + hi) / 2.0
            p = np.exp(-(d - d.min()) * np.exp(mid))
            p /= p.sum()
            entropy = -np.sum(p[p > 0] * np.log(p[p > 0]))
            lo, hi = (mid, hi) if entropy > np.log(perplexity) else (lo, mid)
        cond[i, off[i]] = p
    P = (cond + cond.T) / (2.0 * n)
    kernel = 1.0 / (1.0 + ((Y[:, None] - Y[None]) ** 2).sum(axis=-1))
    Q = kernel[off] / kernel[off].sum()
    P = P[off]
    keep = P > 0
    return float(np.sum(P[keep] * np.log(P[keep] / Q[keep])))


def best_two_partition_inertia(points) -> float:
    """Exhaustive minimum k=2 within-cluster sum of squared distances."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = np.inf
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for side in (mask, ~mask):
            if side.sum() == 0:
                inertia = np.inf
                break
            c = pts[side].mean(axis=0)
            inertia += float(((pts[side] - c) ** 2).sum())
        best = min(best, inertia)
    return best
