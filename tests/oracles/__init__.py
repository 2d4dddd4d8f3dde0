"""Test-only oracles and frozen routing digests.

Nothing here is imported by ``src/``.  The modules keep the seed
implementations the production code was derived from (the per-iteration
rebuild extension loop, the polygon-based shrink environment and its
range tree, the dense DTW recurrence, the all-pairs DRC sweep, the
per-cell region decomposition loop) so the
equivalence suites can diff the production code against them bit for
bit, plus the digest builder behind
``tests/data/routing_digests.golden.json`` and the capture of real DP
inputs from the corpus (:mod:`oracles.dp_inputs`).
"""
