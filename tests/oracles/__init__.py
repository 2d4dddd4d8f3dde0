"""Test-only oracles and frozen routing digests.

Nothing here is imported by ``src/``.  The modules keep the seed
implementations the production code was derived from (the per-iteration
rebuild extension loop, the polygon-based shrink environment and its
range tree) so the equivalence suites can diff the production engine
against them bit for bit, plus the digest builder behind
``tests/data/routing_digests.golden.json``.
"""
