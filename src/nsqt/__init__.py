"""nsqt: a desk-scale lab for sequence-level training of non-autoregressive
sequence-to-sequence models, on instances small enough that its tests check
every estimator exactly against enumeration oracles."""

__version__ = "0.1.0"
