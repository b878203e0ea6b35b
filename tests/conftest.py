"""Import the package before any test module loads numpy or scipy, so that
its BLAS thread default (one thread) takes effect for the whole suite."""

import noetherdyn  # noqa: F401
