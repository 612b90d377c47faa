"""Seeded samplers, small reference constructions and a state-file writer shared by the tests.

Each sampler draws from ``substream(seed)``, so one seed gives one sample.
"""
import math

import numpy as np

from qchan import fileio
from qchan.channels import depolarizing, identity_channel, kraus_channel, random_channel_from
from qchan.rng import substream
from qchan.states import (
    DensityMatrix,
    density_from_matrix,
    random_density_from,
    random_pure_from,
    random_unitary_from,
)
from qchan.verify import _prop3_scores, random_mixed_marginal_matrix


def random_pure(dim, seed):
    return random_pure_from(substream(seed), dim)


def random_density(dim, rank, seed):
    return random_density_from(substream(seed), dim, rank)


def random_unitary(dim, seed):
    return random_unitary_from(substream(seed), dim)


def random_channel(dim, kraus_count, seed):
    return random_channel_from(substream(seed), dim, kraus_count)


def save_state(path, rho):
    """Write ``rho`` as a state file: the ``dim`` line, then its rows."""
    with open(path, "w") as file:
        file.write(f"dim {rho.dim}\n")
        fileio._write_rows(file, rho.matrix)


def random_mixed_marginal_state(rng, l, dim_k):
    """A validated state on H (x) K whose H marginal is I/l."""
    return density_from_matrix(random_mixed_marginal_matrix(rng, l, dim_k))


def maximally_mixed(dim):
    return DensityMatrix(matrix=np.eye(dim, dtype=complex) / dim, dim=dim)


def mixture_of_unitaries(weights, unitaries):
    """The channel Sum_g w_g U_g x U_g*."""
    return kraus_channel([math.sqrt(w) * np.asarray(u, dtype=complex)
                          for w, u in zip(weights, unitaries) if w > 0])


def prop3_check(l, p, x, dim_k, mode="constructive", search_count=200, seed=None):
    """prop3 on one state x."""
    lifted = depolarizing(l, p).tensor(identity_channel(dim_k))
    return _prop3_scores(lifted, l, p, x.matrix[None], dim_k, mode, search_count, seed).check(0)
