"""Pre-optimisation kernel bodies, kept as bit-exactness oracles.

Each module here holds the straightforward implementation an optimised
production kernel replaced.  They live with the tests, not in
``src/``, because nothing but the exactness tests calls them: the
production kernel must match its oracle bit for bit.
"""
