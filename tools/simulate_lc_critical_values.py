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
design is never built, and a QR of it costs more time and memory. Three
independent checks guard against transcription drift:

1. the no-regressor mean case reduces Lc to the classic level
   stationarity statistic, whose Cramer-von Mises quantiles are known
   (0.347 / 0.463 / 0.739 at 10 / 5 / 1 percent);
2. the scalar detrended variant of the same reduction has known
   quantiles as well (0.119 / 0.146 / 0.216);
3. a sample of draws is re-run through currsub.coint.fmols and the two
   Lc values must agree to 1e-8.

Usage: python tools/simulate_lc_critical_values.py [--reps 100000]
           [--t 2000] [--seed 20260815] [--chunk 250] [--quick]

Prints the dict literal to paste into currsub/coint.py.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

TAIL_PROBS = (0.20, 0.15, 0.10, 0.075, 0.05, 0.025, 0.01)

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


def simulate_lc_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> np.ndarray:
    """Lc draws for ``reps`` datasets with one I(1) regressor.

    Mirrors coint.fmols with bandwidth 0: at that bandwidth the one-sided
    and two-sided long-run covariances coincide with the contemporaneous
    one, so the serial-correlation bias term is identically zero and only
    the endogeneity correction to y survives.

    Draws from ``rng``: the (reps, t_len) standard normal increments of
    x, then y likewise; each row of x is rescaled to unit RMS.
    """
    d = _deterministics(t_len, powers)
    p = d.shape[1]
    k = p + 1
    m = t_len - 1

    x = np.cumsum(rng.standard_normal((reps, t_len)), axis=1)
    y = rng.standard_normal((reps, t_len))
    x = x / np.sqrt((x * x).mean(axis=1, keepdims=True))

    resid, _ = _fit(d, x, y)

    # Bandwidth-0 long-run pieces of (residual, regressor innovation).
    r1 = resid[:, 1:]
    dx = np.diff(x, axis=1)
    r1c = r1 - r1.mean(axis=1, keepdims=True)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    g11 = (r1c * r1c).mean(axis=1)
    g12 = (r1c * dxc).mean(axis=1)
    g22 = (dxc * dxc).mean(axis=1)

    y_plus = y[:, 1:] - (g12 / g22)[:, None] * dx
    omega112 = g11 - g12 * g12 / g22

    d1 = d[1:]
    x1 = x[:, 1:]
    u_plus, mom1 = _fit(d1, x1, y_plus)

    scores = np.empty((reps, m, k))
    scores[:, :, :p] = d1[None, :, :] * u_plus[:, :, None]
    scores[:, :, p] = x1 * u_plus
    cum = np.cumsum(scores, axis=1)
    minv = np.linalg.inv(mom1)
    quad = np.einsum("rti,rij,rtj->r", cum, minv, cum)
    return quad / (m * omega112)


def simulate_mean_case_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """No-regressor reduction: (vector Lc, scalar partial-sum statistic)."""
    d = _deterministics(t_len, powers)
    y = rng.standard_normal((reps, t_len))
    beta = np.linalg.solve(d.T @ d, (y @ d).T).T
    resid = y - beta @ d.T
    omega = (resid * resid).mean(axis=1)

    scores = d[None, :, :] * resid[:, :, None]
    cum = np.cumsum(scores, axis=1)
    minv = np.linalg.inv(d.T @ d)
    quad = np.einsum("rti,ij,rtj->r", cum, minv, cum)
    lc = quad / (t_len * omega)

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
    for config in ("const", "linear_trend"):
        powers = CONFIG_TREND_POWERS[config]
        lcs, scalars = [], []
        done = 0
        while done < reps:
            size = min(chunk, reps - done)
            lc, scalar = simulate_mean_case_chunk(rng, size, t_len, powers)
            lcs.append(lc)
            scalars.append(scalar)
            done += size
        scalar_all = np.concatenate(scalars)
        lc_all = np.concatenate(lcs)
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
    """Batched Lc must equal the package's fmols Lc on identical data."""
    try:
        from currsub import coint
        from currsub.series import MonthStamp, MonthlySeries
    except ImportError:
        print("package check failed: currsub not importable", flush=True)
        return False
    print("validation: batched arithmetic vs currsub.coint.fmols", flush=True)
    t_len = 171
    start = MonthStamp(2001, 9)
    config_names = {
        "const": coint.CONST,
        "linear_trend": coint.LINEAR_TREND,
        "quadratic_trend": coint.QUADRATIC_TREND,
    }
    ok = True
    for config, powers in CONFIG_TREND_POWERS.items():
        rng = np.random.default_rng(seed)
        batch = simulate_lc_chunk(rng, 50, t_len, powers)
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.standard_normal((50, t_len)), axis=1)
        y = rng.standard_normal((50, t_len))
        x = x / np.sqrt((x * x).mean(axis=1, keepdims=True))
        gaps = []
        for r in range(50):
            rep = coint.fmols(
                MonthlySeries(start, y[r]),
                MonthlySeries(start, x[r]),
                deterministics=config_names[config],
                bandwidth=0,
            )
            gaps.append(abs(rep.lc_statistic - batch[r]))
        gap = max(gaps)
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
    reps, t_len, chunk = args.reps, args.t_len, args.chunk
    if args.quick:
        reps, t_len, chunk = 2000, 300, 200

    ok = run_package_check(args.seed)
    ok = run_validation(reps, t_len, chunk, args.seed) and ok

    print(f"simulating Lc null: reps={reps} T={t_len}", flush=True)
    table: dict[str, dict[float, float]] = {}
    anchors: dict[str, np.ndarray] = {}
    for config, powers in CONFIG_TREND_POWERS.items():
        rng = np.random.default_rng(args.seed + 1 + len(powers))
        draws = []
        done = 0
        while done < reps:
            size = min(chunk, reps - done)
            draws.append(simulate_lc_chunk(rng, size, t_len, powers))
            done += size
        sample = np.concatenate(draws)
        anchors[config] = sample
        table[config] = {
            prob: float(np.quantile(sample, 1.0 - prob)) for prob in TAIL_PROBS
        }
        row = ", ".join(f"{p:g}: {v:.4f}" for p, v in table[config].items())
        print(f"  {config}: {row}", flush=True)

    # Upper-tail mass at the benchmark statistic for the quadratic case,
    # reported so the table can be sanity-checked against an external
    # p-value computed on the same statistic.
    bench = 0.561928
    frac = float((anchors["quadratic_trend"] > bench).mean())
    print(f"P(Lc > {bench}) under quadratic-trend null: {frac:.4f}")

    print("\nLC_CRITICAL_VALUES = {")
    for config, row in table.items():
        print(f"    {config.upper().replace('_TREND', '_TREND')!s}: {{")
        for prob in TAIL_PROBS:
            print(f"        {prob}: {row[prob]:.4f},")
        print("    },")
    print("}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
