"""Simulate the asymptotic null quantiles of the Lc stability statistic.

The table in ``currsub.coint`` covers one stochastic regressor with a
constant, linear-trend, or quadratic-trend deterministic part. This
script regenerates it: for each configuration it simulates the fully
modified regression under the null of stable cointegration (y = iid
noise around a zero cointegrating vector, x a driftless random walk,
bandwidth 0 so the kernel corrections vanish asymptotically) at a large
T and tabulates upper-tail quantiles of Lc.

The batched arithmetic mirrors currsub.coint.fmols at bandwidth 0 but
solves normal equations (``_fit``, both stages) instead of the package's
scaled QR: the trend block is shared by every rep, so the (reps, T, k)
design is never built, and a QR of it costs more time and memory. The
cumulated scores are laid out time-last, (reps, k, T - 1), so the running
sum walks contiguous rows in place, and Hansen's quadratic form
sum_t S_t' M^-1 S_t is read off the k x k Gram matrix sum_t S_t S_t' as
sum_ij (M^-1)_ij G_ij: one batched matrix product per chunk. Three
independent checks guard against transcription drift:

1. the no-regressor mean case reduces Lc to the classic level
   stationarity statistic, whose Cramer-von Mises quantiles are known
   (0.347 / 0.463 / 0.739 at 10 / 5 / 1 percent);
2. the scalar detrended variant of the same reduction has known
   quantiles as well (0.119 / 0.146 / 0.216);
3. a sample of draws (50 series of 171 months per configuration) is
   re-run through currsub.coint.fmols_stack, whose rows are
   currsub.coint.fmols's fits, and the two Lc values must agree to 1e-8.

Usage: python tools/simulate_lc_critical_values.py [--reps 100000]
           [--t 2000] [--seed 20260815] [--chunk 250] [--quick]

--reps and --chunk must be at least 1, --t at least 30 and --seed at least 0
(exit 2 otherwise).

Prints each configuration's quantiles, each with a distribution-free 95%
order-statistic confidence interval, then the dict literal to paste into
currsub/coint.py.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

TAIL_PROBS = (0.20, 0.15, 0.10, 0.075, 0.05, 0.025, 0.01)
Z_95 = 1.959964  # two-sided 95% standard normal quantile

CONFIG_TREND_POWERS = {
    "const": (0,),
    "linear_trend": (0, 1),
    "quadratic_trend": (0, 1, 2),
}


def _deterministics(t_len: int, powers: tuple[int, ...]) -> np.ndarray:
    t = np.arange(t_len, dtype=float)
    d = np.column_stack([t**p for p in powers])
    return d / np.sqrt((d * d).mean(axis=0))


def _fit(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and moment matrices of each row of y on [d, that row of x]."""
    p = d.shape[1]
    a_dx = x @ d
    mom = np.empty((x.shape[0], p + 1, p + 1))
    mom[:, :p, :p] = d.T @ d
    mom[:, :p, p] = a_dx
    mom[:, p, :p] = a_dx
    mom[:, p, p] = (x * x).sum(axis=1)
    rhs = np.concatenate([y @ d, (x * y).sum(axis=1, keepdims=True)], axis=1)
    beta = np.linalg.solve(mom, rhs[..., None])[..., 0]
    return y - beta[:, :p] @ d.T - beta[:, p:] * x, mom


def _draws(
    rng: np.random.Generator, reps: int, t_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) from ``rng``: the (reps, t_len) standard normal increments
    of x, then y likewise; each row of x is rescaled to unit RMS."""
    x = np.cumsum(rng.standard_normal((reps, t_len)), axis=1)
    y = rng.standard_normal((reps, t_len))
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True)), y


def _chunk_sizes(reps: int, chunk: int) -> list[int]:
    """Sizes of the chunk-sized pieces, the last one short, that sum to reps."""
    return [min(chunk, reps - done) for done in range(0, reps, chunk)]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of (reps, n) a with the same row of b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cumulated_quad(scores: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """sum_t S_t' M^-1 S_t per rep, S_t the running sums of time-last
    ``scores`` (reps, k, n) and M the (reps, k, k) or (k, k) ``moment``.

    The sum equals sum_ij (M^-1)_ij G_ij with the Gram matrix
    G = sum_t S_t S_t': one batched k x k product instead of n quadratic
    forms. The running sums overwrite ``scores``.
    """
    np.cumsum(scores, axis=2, out=scores)
    return (np.linalg.inv(moment) * (scores @ scores.swapaxes(1, 2))).sum(axis=(1, 2))


def quantile_ci_ranks(n: int, q: float) -> tuple[int, int]:
    """1-based ranks (lo, hi) of the order statistics of n draws that bracket
    the q-quantile with probability about 95%, whatever the distribution.

    X_(lo) <= xi_q < X_(hi) holds when the count of draws at or below xi_q,
    Binomial(n, q), lies in [lo, hi - 1]; the bounds are its normal
    approximation n q -/+ 1.96 sd, widened to whole ranks and clipped to
    [1, n].
    """
    half = Z_95 * math.sqrt(n * q * (1.0 - q))
    return max(math.floor(n * q - half), 1), min(math.ceil(n * q + half) + 1, n)


def simulate_lc_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> np.ndarray:
    """Lc draws for ``reps`` datasets with one I(1) regressor.

    Mirrors coint.fmols with bandwidth 0: at that bandwidth the one-sided
    and two-sided long-run covariances coincide with the contemporaneous
    one, so the serial-correlation bias term is identically zero and only
    the endogeneity correction to y survives.

    The scores are built time-last, as (reps, k, T - 1), so their running
    sums S_t run in place along contiguous rows, and sum_t S_t' M^-1 S_t
    is read off the k x k Gram matrix sum_t S_t S_t' (``_cumulated_quad``);
    it agrees with a T-long loop of quadratic forms to rounding (about
    1e-13 relative).

    The inputs come from ``_draws(rng, reps, t_len)``.
    """
    d = _deterministics(t_len, powers)
    p = d.shape[1]
    k = p + 1
    m = t_len - 1
    x, y = _draws(rng, reps, t_len)

    resid, _ = _fit(d, x, y)

    # Bandwidth-0 long-run pieces of (residual, regressor innovation).
    r1 = resid[:, 1:]
    dx = np.diff(x, axis=1)
    r1c = r1 - r1.mean(axis=1, keepdims=True)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    g11, g12, g22 = (
        _row_dot(a, b) / m for a, b in ((r1c, r1c), (r1c, dxc), (dxc, dxc))
    )

    y_plus = y[:, 1:] - (g12 / g22)[:, None] * dx
    omega112 = g11 - g12 * g12 / g22

    d1 = d[1:]
    x1 = x[:, 1:]
    u_plus, mom1 = _fit(d1, x1, y_plus)

    scores = np.empty((reps, k, m))
    np.multiply(d1.T[None], u_plus[:, None, :], out=scores[:, :p])
    np.multiply(x1, u_plus, out=scores[:, p])
    return _cumulated_quad(scores, mom1) / (m * omega112)


def simulate_mean_case_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """No-regressor reduction: (vector Lc, scalar partial-sum statistic)."""
    d = _deterministics(t_len, powers)
    y = rng.standard_normal((reps, t_len))
    beta = np.linalg.solve(d.T @ d, (y @ d).T).T
    resid = y - beta @ d.T
    omega = (resid * resid).mean(axis=1)

    lc = _cumulated_quad(d.T[None] * resid[:, None, :], d.T @ d) / (t_len * omega)

    s = np.cumsum(resid, axis=1)
    scalar = (s * s).sum(axis=1) / (t_len**2 * omega)
    return lc, scalar


def run_validation(reps: int, t_len: int, chunk: int, seed: int) -> bool:
    """Check the machinery against known special-case quantiles."""
    print("validation: no-regressor reductions", flush=True)
    ok = True
    known = {
        # scalar partial-sum statistic, level and trend cases
        "const": {0.10: 0.347, 0.05: 0.463, 0.01: 0.739},
        "linear_trend": {0.10: 0.119, 0.05: 0.146, 0.01: 0.216},
    }
    rng = np.random.default_rng(seed)
    sizes = _chunk_sizes(reps, chunk)
    for config in ("const", "linear_trend"):
        powers = CONFIG_TREND_POWERS[config]
        pieces = [simulate_mean_case_chunk(rng, s, t_len, powers) for s in sizes]
        lc_all, scalar_all = (np.concatenate(part) for part in zip(*pieces))
        for prob, expect in known[config].items():
            got = float(np.quantile(scalar_all, 1.0 - prob))
            rel = abs(got - expect) / expect
            status = "ok" if rel < 0.03 else "FAIL"
            if rel >= 0.03:
                ok = False
            print(
                f"  scalar {config:13s} {int(prob * 100):3d}%: "
                f"simulated {got:.4f} vs published {expect:.3f} [{status}]"
            )
        if config == "const":
            # With a constant only, the vector Lc and the scalar statistic
            # are the same number; anything else is an indexing bug.
            gap = float(np.abs(lc_all - scalar_all).max())
            status = "ok" if gap < 1e-10 else "FAIL"
            if gap >= 1e-10:
                ok = False
            print(f"  vector-vs-scalar identity gap: {gap:.2e} [{status}]")
    return ok


def run_package_check(seed: int) -> bool:
    """Batched Lc must equal the package's fmols_stack Lc on identical data."""
    try:
        from currsub import coint
    except ImportError:
        print("package check failed: currsub not importable", flush=True)
        return False
    print("validation: batched arithmetic vs currsub.coint.fmols", flush=True)
    ok = True
    for config, powers in CONFIG_TREND_POWERS.items():
        batch = simulate_lc_chunk(np.random.default_rng(seed), 50, 171, powers)
        x, y = _draws(np.random.default_rng(seed), 50, 171)
        fit = coint.fmols_stack(y, x, deterministics=config, bandwidth=0)
        gap = max(abs(lc.statistic - b) for lc, b in zip(fit.lc, batch.tolist()))
        status = "ok" if gap < 1e-8 else "FAIL"
        if gap >= 1e-8:
            ok = False
        print(f"  {config:16s} max |batched - package| = {gap:.2e} [{status}]")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=100_000)
    parser.add_argument("--t", dest="t_len", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--chunk", type=int, default=250)
    parser.add_argument(
        "--quick", action="store_true", help="tiny run to exercise the code"
    )
    args = parser.parse_args(argv)
    # --t floors at the 30 observations that coint.fmols requires.
    for flag, value, floor in (
        ("--reps", args.reps, 1),
        ("--chunk", args.chunk, 1),
        ("--t", args.t_len, 30),
        ("--seed", args.seed, 0),
    ):
        if value < floor:
            parser.error(f"{flag} must be >= {floor}, got {value}")
    reps, t_len, chunk = args.reps, args.t_len, args.chunk
    if args.quick:
        reps, t_len, chunk = 2000, 300, 200

    ok = run_package_check(args.seed)
    ok = run_validation(reps, t_len, chunk, args.seed) and ok

    print(f"simulating Lc null: reps={reps} T={t_len}", flush=True)
    table: dict[str, dict[float, float]] = {}
    anchors: dict[str, np.ndarray] = {}
    sizes = _chunk_sizes(reps, chunk)
    for config, powers in CONFIG_TREND_POWERS.items():
        rng = np.random.default_rng(args.seed + 1 + len(powers))
        sample = np.concatenate([simulate_lc_chunk(rng, s, t_len, powers) for s in sizes])
        anchors[config] = sample
        table[config] = {
            prob: float(np.quantile(sample, 1.0 - prob)) for prob in TAIL_PROBS
        }
        ordered = np.sort(sample)
        cells = []
        for prob, value in table[config].items():
            lo, hi = quantile_ci_ranks(len(ordered), 1.0 - prob)
            cells.append(
                f"{prob:g}: {value:.4f} [{ordered[lo - 1]:.4f}, {ordered[hi - 1]:.4f}]"
            )
        print(f"  {config}: {', '.join(cells)}", flush=True)

    # Upper-tail mass at the benchmark statistic for the quadratic case,
    # reported so the table can be sanity-checked against an external
    # p-value computed on the same statistic.
    bench = 0.561928
    frac = float((anchors["quadratic_trend"] > bench).mean())
    print(f"P(Lc > {bench}) under quadratic-trend null: {frac:.4f}")

    print("\nLC_CRITICAL_VALUES = {")
    for config, row in table.items():
        print(f"    {config.upper()}: {{")
        for prob in TAIL_PROBS:
            print(f"        {prob}: {row[prob]:.4f},")
        print("    },")
    print("}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
