"""Benchmark harness: regeneration of every table and figure of the paper.

``experiments.EXPERIMENTS`` declares every experiment once; ``harness``
runs and exports them, and ``diff`` is the regression gate over exports.
"""
