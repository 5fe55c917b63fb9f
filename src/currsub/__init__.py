"""Currency-substitution money demand: model, tests, estimation, pipeline.

The package splits along the analysis stages:

- :mod:`currsub.series`: monthly-calendar series container and correlation
- :mod:`currsub.model`: the CES money-demand model and its synthetic DGP
- :mod:`currsub.unitroot`: ADF and Phillips-Perron tests
- :mod:`currsub.lrcov`: kernel long-run covariance estimation
- :mod:`currsub.coint`: fully modified least squares and the Lc test
- :mod:`currsub.pipeline`: CSV ingestion, derivation, reports
- :mod:`currsub.cli`: the ``currsub`` command
"""
