"""The repo benchmark: five end-to-end workloads and a layer ledger.

See ``README.md`` in this directory. ``run.py`` is the entry point named
by the root ``BENCHMARK.json``.
"""
