"""Remedy fixture: every site here has a mechanical remedy.

Each message names it — ``sorted(...)`` for RA701, ``math.fsum`` for
RA702, the dtype to pin for RA703 — so it can be applied by hand
without changing what the functions compute.
"""

import numpy as np


def total_mass(values):
    distinct = set(values)
    return sum(distinct)  # expect: RA702


def ordered_names(names):
    out = []
    for name in {n.lower() for n in names}:  # expect: RA701
        out.append(name)
    return out


def zero_grid(n):
    return np.zeros(n)  # expect: RA703


def link_index(links):
    return np.array(links, dtype=np.int_)  # expect: RA703
