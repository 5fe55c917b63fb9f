"""What the report prints, against a 50-digit reference.

The report prints every float at 9 significant digits, and the parity
checks compare bits with the parent, never digits with the truth. Here
``tests/test_coint.py::_oracle_fmols`` and the delta path are written in
stdlib ``decimal`` at 50 digits and run on the exact binary values of
the derived series, so the reference is the exact fit of what the
pipeline reads, to far more digits than a double holds.

The grid is seeds 0-2 x n in {60, 171, 360} draws of the model, each
written as a CSV file, ingested and estimated as ``currsub estimate``
does, at the default trend origin and at 1990-01. Each quantity has one
bound on its largest relative error over the grid: theta, the standard
errors, Omega, Lc and the delta ratios. The bounds were set once, at
about ten times the largest error measured under the SkylakeX, Haswell,
Zen and Sandybridge OpenBLAS kernels; a later change must keep them, not
loosen them.

The count of rendered values whose 9 digits equal the reference's is
printed, and may not fall below the least count those four kernels gave:
every theta, standard error and Lc is right, and all but two of the 3,546
delta ratios (SkylakeX gets all but one).
"""

import math
from decimal import Decimal, localcontext

import pytest

from currsub import coint, pipeline
from currsub.model import DgpNoise, TrendCoefficients, simulate_dgp
from currsub.series import MonthStamp

TRUTH = TrendCoefficients(v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
SEEDS = range(3)
LENGTHS = (60, 171, 360)
ORIGINS = (None, MonthStamp(1990, 1))
_DIGITS = 50

# Largest relative error over the grid, per quantity. Measured, at most
# over the four kernels: theta 5.2e-12, standard errors 3.1e-14, Omega
# 2.7e-14, Lc 1.04e-11, delta ratios 3.5e-11.
BOUNDS = {
    "theta": 5e-11,
    "standard_errors": 3e-13,
    "omega": 3e-13,
    "lc": 1e-10,
    "delta_ratio": 3e-10,
}
# Per quantity the report renders, the least count of values whose 9
# printed digits equal the reference's.
RIGHT_DIGITS_FLOOR = {"theta": 72, "standard_errors": 72, "lc": 18, "delta_ratio": 3544}


def _inverse(a):
    """Gauss-Jordan inverse of a small square matrix of Decimals."""
    k = len(a)
    rows = [list(row) + [Decimal(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def _gram_solve(z, y):
    """(Z'Z)^-1 and (Z'Z)^-1 Z'y, Z given by its rows."""
    k = len(z[0])
    minv = _inverse([[sum(r[i] * r[j] for r in z) for j in range(k)] for i in range(k)])
    zy = [sum(r[i] * v for r, v in zip(z, y)) for i in range(k)]
    return minv, [sum(m * v for m, v in zip(row, zy)) for row in minv]


def reference_fit(y, x, offset, bandwidth):
    """Phillips-Hansen FM-OLS, Hansen's Lc and the delta-ratio path of one
    quadratic-trend fit, from the formulas of ``_oracle_fmols``, in 50-digit
    Decimals. ``y`` and ``x`` are floats, taken exactly; the trend index of
    row i is i + ``offset``, and ``bandwidth`` None is the Newey-West rule.

    Returns theta, the standard errors, Omega (row by row), Lc and the
    ratios, each as Decimals.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        n = len(y)
        y = [Decimal(v) for v in y]
        x = [Decimal(v) for v in x]
        z = [[Decimal(1), Decimal(i + offset), Decimal(i + offset) ** 2, x[i]] for i in range(n)]
        _, beta = _gram_solve(z, y)
        resid = [v - sum(b * c for b, c in zip(beta, row)) for v, row in zip(y, z)]

        # Long-run covariance of the n - 1 demeaned rows of (u, dx), each
        # lag's sum divided by n - 1.
        m = n - 1
        dx = [x[i] - x[i - 1] for i in range(1, n)]
        mu, mx = sum(resid[1:]) / m, sum(dx) / m
        e = [(u - mu, d - mx) for u, d in zip(resid[1:], dx)]
        b = math.floor(4.0 * (m / 100.0) ** (2.0 / 9.0)) if bandwidth is None else bandwidth
        gammas = []
        for j in range(b + 1):
            gammas.append(
                [[sum(e[i][p] * e[i - j][q] for i in range(j, m)) / m for q in (0, 1)] for p in (0, 1)]
            )
        lam = [
            [gammas[0][p][q] + sum((1 - Decimal(j) / (b + 1)) * gammas[j][p][q] for j in range(1, b + 1))
             for q in (0, 1)]
            for p in (0, 1)
        ]
        omega = [[lam[p][q] + lam[q][p] - gammas[0][p][q] for q in (0, 1)] for p in (0, 1)]

        (w11, w12), (_, w22) = omega
        y_plus = [y[i + 1] - w12 / w22 * dx[i] for i in range(m)]
        lam12_plus = lam[0][1] - w12 / w22 * lam[1][1]
        omega112 = w11 - w12**2 / w22

        # The second stage runs on rows 1..n-1, the rows with an innovation;
        # its bias is scaled by n - 1.
        zt = z[1:]
        minv, fit = _gram_solve(zt, y_plus)
        theta = [f - m * row[3] * lam12_plus for f, row in zip(fit, minv)]
        se = [(omega112 * minv[i][i]).sqrt() for i in range(4)]
        bias = [0, 0, 0, lam12_plus]
        partial = [Decimal(0)] * 4
        quad = Decimal(0)
        for row, v in zip(zt, y_plus):
            u = v - sum(t * c for t, c in zip(theta, row))
            partial = [s + c * u - d for s, c, d in zip(partial, row, bias)]
            quad += sum(p * sum(mi * q for mi, q in zip(mrow, partial)) for p, mrow in zip(partial, minv))
        lc = quad / (m * omega112)

        v0, v1, v2, sigma = theta
        ratio = [((v0 + v1 * t + v2 * t * t) / sigma).exp() for t in (row[1] for row in z)]
        return {
            "theta": theta,
            "standard_errors": se,
            "omega": omega[0] + omega[1],
            "lc": [lc],
            "delta_ratio": ratio,
        }


def _package_values(est):
    report = est.fmols
    return {
        "theta": list(report.params.values()),
        "standard_errors": list(report.standard_errors.values()),
        "omega": report.lrc.omega.ravel().tolist(),
        "lc": [report.lc_statistic],
        "delta_ratio": est.delta_ratio.values.tolist(),
    }


def _printed(value) -> str:
    """A value at the report's 9 significant digits."""
    return format(Decimal(value), ".8e")


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """Per quantity, (package float, reference Decimal) over the grid."""
    path = tmp_path_factory.mktemp("precision") / "draw.csv"
    pairs = {name: [] for name in BOUNDS}
    for seed in SEEDS:
        for n in LENGTHS:
            sim = simulate_dgp(TRUTH, n, NOISE, seed)
            pipeline.write_dataset_csv(pipeline.dataset_rows_from_simulation(sim), path)
            ingested = pipeline.ingest(path)
            for origin in ORIGINS:
                config = pipeline.PipelineConfig(trend_origin=origin)
                derived = pipeline.derive_series(ingested.rows, config)
                est = pipeline.run_estimation(derived, config)
                y = derived.log_money_ratio
                offset = 0 if origin is None else y.start.index - origin.index
                ref = reference_fit(
                    y.values.tolist(), derived.oc_spread_log.values.tolist(), offset, config.bandwidth
                )
                assert est.fmols.deterministics == coint.QUADRATIC_TREND
                for name, values in _package_values(est).items():
                    assert len(values) == len(ref[name])
                    pairs[name].extend(zip(values, ref[name]))
    return pairs


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_forward_error_is_within_its_bound(grid, name):
    worst = max(abs((Decimal(ours) - ref) / ref) for ours, ref in grid[name])
    assert worst <= BOUNDS[name], f"{name}: relative error {float(worst):.3g}"


def test_rendered_digits_equal_the_reference(grid, capfd):
    right = {
        name: sum(_printed(ours) == _printed(ref) for ours, ref in grid[name])
        for name in RIGHT_DIGITS_FLOOR
    }
    total = sum(len(grid[name]) for name in RIGHT_DIGITS_FLOOR)
    detail = ", ".join(f"{name} {right[name]}/{len(grid[name])}" for name in RIGHT_DIGITS_FLOOR)
    with capfd.disabled():
        print(
            f"[precision] {sum(right.values())} of {total} rendered values equal "
            f"the 50-digit reference ({detail})"
        )
    for name, floor in RIGHT_DIGITS_FLOOR.items():
        assert right[name] >= floor, f"{name}: {right[name]} right digits, floor {floor}"
