"""Simulate the asymptotic null quantiles of the Lc stability statistic.

The table in ``currsub.coint`` covers one stochastic regressor with a
constant, linear-trend, or quadratic-trend deterministic part. This
script regenerates it: for each configuration it simulates the fully
modified regression under the null of stable cointegration (y = iid
noise around a zero cointegrating vector, x a driftless random walk,
bandwidth 0 so the kernel corrections vanish asymptotically) at a large
T and tabulates upper-tail quantiles of Lc.

The batched arithmetic mirrors currsub.coint.fmols_stack at bandwidth 0
with currsub._ols's trend columns and sums Lc with the package's form,
coint._cumulated_quad, so it needs ``currsub`` importable
(``PYTHONPATH=src``). It keeps two routines of its own, each faster per
250 x 2000 chunk than the package's (2-vCPU VM): both FM-OLS stages as
projections off one orthonormal trend basis that every rep shares, then
off the rep's detrended regressor (Frisch-Waugh-Lovell), for
fmols_stack's per-row scaled QR (4.5-5.9x as long, best of 5: 136-207 vs
30-35 ms per configuration); and bandwidth-0 dot products for
currsub.lrcov (35-56% longer). Lc is invariant to a nonsingular
reparametrisation of the regressors, so the scores are taken in those
orthonormal coordinates.

The reps are cut into chunks of about ``_CHUNK_VALUES`` values (250 reps
at T = 2000) and each chunk into row blocks of about ``_BLOCK_VALUES``
values (16 rows at T = 2000), so a block's arrays stay cache-sized; one
helper, ``_row_blocks``, cuts both. A chunk draws every rep's x
increments, then every rep's y, as ``_draws`` does whole, but streams
the y: each block's y is drawn, and its x walk finished, in the block
loop, so only x is held whole. The generator fills its output in order,
so the draws keep their bits. The blocks sit inside the chunk instead of
replacing it: the chunk size decides how the generator's stream is cut
into draws, and so the table, while the block size only decides which
rows share a BLAS call, which can move a draw's last bits (about 1e-13
relative) but not a printed quantile.

Three independent checks guard against transcription drift:

1. the no-regressor mean case reduces Lc to the classic level
   stationarity statistic, whose Cramer-von Mises quantiles are known
   (0.347 / 0.463 / 0.739 at 10 / 5 / 1 percent);
2. the scalar detrended variant of the same reduction has known
   quantiles as well (0.119 / 0.146 / 0.216);
3. a sample of draws (50 series of 171 months per configuration) is
   re-run through currsub.coint.fmols_stack, whose rows are
   currsub.coint.fmols's fits, and the two Lc values must agree to 1e-8.

Usage: python tools/simulate_lc_critical_values.py [--reps 100000]
           [--t 2000] [--seed 20260815]

--reps must be at least 1, --t at least 30 and --seed at least 0. A
refused argument exits 2 before anything is simulated.

Prints each configuration's quantiles, each with a distribution-free 95%
order-statistic confidence interval, then the dict literal to paste into
currsub/coint.py.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from currsub._ols import dot, polynomial_trend, unit_rms
from currsub.coint import _TREND_DEGREE, LC_TAIL_PROBS, _cumulated_quad, fmols_stack

Z_95 = 1.959964  # two-sided 95% standard normal quantile

CONFIG_TREND_POWERS = {config: tuple(range(deg + 1)) for config, deg in _TREND_DEGREE.items()}


def _trend_basis(t_len: int, powers: tuple[int, ...], first: int = 0) -> np.ndarray:
    """Orthonormal rows (p, t_len - first) spanning the unit-RMS trend
    columns (``polynomial_trend``, then ``unit_rms``) on times first..t_len - 1."""
    d = polynomial_trend(np.arange(first, t_len, dtype=float), max(powers))
    unit_rms(d)
    return np.ascontiguousarray(np.linalg.qr(d)[0].T)


def _project_off(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of v (rows, n), in place, less its projection on the
    orthonormal rows of q (p, n); returns v."""
    v -= (v @ q.T) @ q
    return v


def _walk(x: np.ndarray) -> np.ndarray:
    """Each row of the increments x, in place, summed into a random walk
    and rescaled to unit RMS; returns x."""
    np.cumsum(x, axis=1, out=x)
    x /= np.sqrt((x * x).mean(axis=1, keepdims=True))
    return x


def _draws(
    rng: np.random.Generator, reps: int, t_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) from ``rng``, whole: the (reps, t_len) standard normal
    increments of x, walked by ``_walk``, then y likewise, unwalked. The
    reference for the stream order that simulate_lc_chunk draws in blocks."""
    x = _walk(rng.standard_normal((reps, t_len)))
    return x, rng.standard_normal((reps, t_len))


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


# Values (rows x T) per chunk of the generator's stream: 250 reps at
# T = 2000, so a run at the default T cuts the stream as it always has.
_CHUNK_VALUES = 500_000

# Values (rows x T) per row block of a chunk: 16 rows at T = 2000, 109 at
# T = 300, so a block's quadratic-trend scores (1 MB) stay near a core's
# 2 MB L2 cache. At 250 reps x T = 2000 on 2 vCPUs the three
# configurations take (medians of 14 interleaved rounds) 269 ms as one
# 250-row block and 182 / 177 / 172 / 182 / 202 ms in blocks of 4 / 8 /
# 16 / 32 / 65 rows; a quadratic-trend chunk's tracemalloc peak is
# 45.9 MiB and 4.6 / 5.3 / 6.6 / 9.3 / 14.8 MiB (x, held whole, is
# 3.8 MiB). 8 rows were not faster than 16 over 62 paired rounds.
_BLOCK_VALUES = 32_768


def _row_blocks(reps: int, t_len: int, values: int) -> list[slice]:
    """Consecutive row slices of ``values`` values each, the last one
    short, that cover ``reps`` rows of ``t_len`` values (at least one row
    per slice): the chunks of a run at _CHUNK_VALUES, the row blocks of a
    chunk at _BLOCK_VALUES."""
    rows = max(values // t_len, 1)
    return [slice(lo, min(lo + rows, reps)) for lo in range(0, reps, rows)]


def _first_stage(q0: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y+ (rows, T - 1) and omega11.2 of each row at bandwidth 0, from the
    residual of y on [trend, x]: the detrended y less its regression on the
    detrended x. Its temporaries die before _lc_block allocates the scores."""
    m = x.shape[1] - 1
    x_t = _project_off(q0, x.copy())
    resid = _project_off(q0, y.copy())
    resid -= (dot(x_t, resid) / dot(x_t, x_t))[:, None] * x_t

    # Bandwidth-0 long-run pieces of (residual, regressor innovation).
    r1 = resid[:, 1:]
    dx = np.diff(x, axis=1)
    r1c = r1 - r1.mean(axis=1, keepdims=True)
    dxc = dx - dx.mean(axis=1, keepdims=True)
    g11, g12, g22 = (
        dot(a, b) / m for a, b in ((r1c, r1c), (r1c, dxc), (dxc, dxc))
    )
    return y[:, 1:] - (g12 / g22)[:, None] * dx, g11 - g12 * g12 / g22


def _lc_block(q0: np.ndarray, q1: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lc of each row of (x, y) at bandwidth 0, the trend's orthonormal rows
    q0 on times 0..T-1 and q1 on 1..T-1: the second stage projects off q1
    and then off q_x, the unit-norm detrended regressor, and the scores are
    taken in the coordinates [q1, q_x]."""
    u_plus, omega112 = _first_stage(q0, x, y)
    q_x = _project_off(q1, x[:, 1:].copy())
    q_x /= np.sqrt(dot(q_x, q_x))[:, None]
    _project_off(q1, u_plus)
    u_plus -= dot(q_x, u_plus)[:, None] * q_x

    scores = np.empty((x.shape[0], q1.shape[0] + 1, u_plus.shape[1]))
    np.multiply(q1, u_plus[:, None, :], out=scores[:, :-1])
    np.multiply(q_x, u_plus, out=scores[:, -1])
    return _cumulated_quad(scores) / (u_plus.shape[1] * omega112)


def simulate_lc_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> np.ndarray:
    """Lc draws for ``reps`` datasets with one I(1) regressor.

    Mirrors coint.fmols with bandwidth 0: at that bandwidth the one-sided
    and two-sided long-run covariances coincide with the contemporaneous
    one, so the serial-correlation bias term is identically zero and only
    the endogeneity correction to y survives.

    The chunk draws ``_draws(rng, reps, t_len)``'s stream, x whole and y
    one ``_row_blocks`` block of about _BLOCK_VALUES values at a time, and
    fits each block as it is drawn (see the module docstring). The scores
    are time-last, (rows, k, T - 1), for coint._cumulated_quad;
    standard-normal draws cannot overflow it, so the division by
    m * omega112 follows the sum.
    """
    q0 = _trend_basis(t_len, powers)
    q1 = _trend_basis(t_len, powers, first=1)
    x = rng.standard_normal((reps, t_len))
    lc = np.empty(reps)
    for rows in _row_blocks(reps, t_len, _BLOCK_VALUES):
        y = rng.standard_normal((rows.stop - rows.start, t_len))
        lc[rows] = _lc_block(q0, q1, _walk(x[rows]), y)
    return lc


def simulate_mean_case_chunk(
    rng: np.random.Generator, reps: int, t_len: int, powers: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """No-regressor reduction: (vector Lc, scalar partial-sum statistic),
    each ``_row_blocks`` block's y drawn and fitted in turn."""
    q = _trend_basis(t_len, powers)
    lc = np.empty(reps)
    scalar = np.empty(reps)
    for rows in _row_blocks(reps, t_len, _BLOCK_VALUES):
        resid = _project_off(q, rng.standard_normal((rows.stop - rows.start, t_len)))
        omega = (resid * resid).mean(axis=1)
        lc[rows] = _cumulated_quad(q * resid[:, None, :]) / (t_len * omega)
        s = np.cumsum(resid, axis=1)
        scalar[rows] = (s * s).sum(axis=1) / (t_len**2 * omega)
    return lc, scalar


def run_validation(sizes: list[int], t_len: int, seed: int) -> bool:
    """Check the machinery against known special-case quantiles, drawn in
    chunks of ``sizes`` reps of ``t_len`` values."""
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
    print("validation: batched arithmetic vs currsub.coint.fmols", flush=True)
    ok = True
    for config, powers in CONFIG_TREND_POWERS.items():
        batch = simulate_lc_chunk(np.random.default_rng(seed), 50, 171, powers)
        x, y = _draws(np.random.default_rng(seed), 50, 171)
        fit = fmols_stack(y, x, deterministics=config, bandwidth=0)
        gap = float(np.abs(fit.lc - batch).max())
        status = "ok" if gap < 1e-8 else "FAIL"
        if gap >= 1e-8:
            ok = False
        print(f"  {config:16s} max |batched - package| = {gap:.2e} [{status}]")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=100_000, help="default 100000")
    parser.add_argument("--t", dest="t_len", type=int, default=2000, help="default 2000")
    parser.add_argument("--seed", type=int, default=20260815)
    args = parser.parse_args(argv)
    reps, t_len = args.reps, args.t_len
    # --t floors at the 30 observations that coint.fmols requires.
    for flag, value, floor in (
        ("--reps", reps, 1),
        ("--t", t_len, 30),
        ("--seed", args.seed, 0),
    ):
        if value < floor:
            parser.error(f"{flag} must be >= {floor}, got {value}")
    sizes = [rows.stop - rows.start for rows in _row_blocks(reps, t_len, _CHUNK_VALUES)]

    ok = run_package_check(args.seed)
    ok = run_validation(sizes, t_len, args.seed) and ok

    print(f"simulating Lc null: reps={reps} T={t_len}", flush=True)
    table: dict[str, dict[float, float]] = {}
    anchors: dict[str, np.ndarray] = {}
    for config, powers in CONFIG_TREND_POWERS.items():
        rng = np.random.default_rng(args.seed + 1 + len(powers))
        sample = np.concatenate([simulate_lc_chunk(rng, s, t_len, powers) for s in sizes])
        anchors[config] = sample
        table[config] = {
            prob: float(np.quantile(sample, 1.0 - prob)) for prob in LC_TAIL_PROBS
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
        for prob in LC_TAIL_PROBS:
            print(f"        {prob}: {row[prob]:.4f},")
        print("    },")
    print("}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
