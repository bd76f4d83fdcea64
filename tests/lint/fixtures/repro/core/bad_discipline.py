"""Seeded violations of every lint rule — consumed by the lint tests only.

This module is never imported; it lives under a ``repro/core/`` directory
so the scoped rule (R002) treats it like a real core module.  It
deliberately omits ``__all__`` (R003).
"""

import random
import time

import numpy as np


def jitter():
    return random.random() + np.random.default_rng().random()


def stamp():
    return time.time()


def pick(options):
    for item in {1, 2, 3}:
        options.append(item)
    return options


def sweep(machine, vals):  # repro: kernel
    for pe in range(machine.n_pes):
        vals[pe] += 1
