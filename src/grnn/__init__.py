"""Gated recurrent network forecasting toolkit.

From-scratch LSTM/GRU/hybrid stacks trained by full backpropagation
through time, the Nadam optimizer, TPE Bayesian hyperparameter
search, technical-indicator feature preparation, and the statistical
machinery to compare architectures across repeated seeded runs.  Import
each name from the module that defines it (`grnn.train.run_experiment`).
"""

__version__ = "0.1.0"
