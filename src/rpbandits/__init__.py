"""Batched stochastic linear bandits with corruption-robust, locally private
least squares estimation.

Import from the submodules: action sets and optimal designs (`design`), the
filtered least squares estimator (`robust`), reward privatization
(`privacy`), simulation environments (`env`), the phased elimination policy
(`policy`), seeded random streams (`seeding`), the exceptions (`errors`),
the sweep harness (`harness`) and the command line (`cli`).
"""
