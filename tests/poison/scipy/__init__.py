"""A scipy that cannot be imported.

``tests/test_import_budget.py`` and CI's perf-smoke job put
``tests/poison`` first on ``PYTHONPATH``, so ``import scipy`` finds this
package instead of the real one and fails exactly as it would on a
numpy-only install. scipy is a test-only dependency (the binomial-tail
oracle, the goodness-of-fit tests); anything under ``src/`` that imports
it again fails those runs instead of quietly adding ~0.65 s and ~63 MiB
to every process (docs/PERFORMANCE.md, "How a gain is measured").
"""

raise ModuleNotFoundError(
    "scipy is poisoned on this path: src/repro must run on numpy alone "
    "(see tests/test_import_budget.py)", name="scipy")
