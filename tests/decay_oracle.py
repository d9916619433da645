"""Per-point decay checks, kept to check the batched ones in ``constants`` and ``entropy``.

They take their states and probes from the same one-call draws as the
batched checks, then apply the semigroup one matrix and one time at a time,
with the same skip rules and loop order.  The check loops yield every slack
in loop order, so a test can tell a moved witness from a tie; ``report``
reduces them the way the loops always did.
"""

import math

import numpy as np

from qmsemi.constants import _report, schatten_norm
from qmsemi.entropy import (DecayTrace, d_sub, default_grid, fisher, fisher_n,
                            spectral_terms)
from qmsemi.generator import markov_pair
from qmsemi.matops import _chart, random_hermitian, random_state, semigroup_apply
from qmsemi.tolerances import DECAY_SKIP, TINY


def decay_slacks(gen, lam, n_states=50, seed=0):
    """Yield ((state_index, t, which), slack) for D_N and I_N decay."""
    a, n = markov_pair(gen)
    grid = default_grid(lam if lam > 0 else 1.0)
    rng = np.random.default_rng([seed, 17])
    for idx, rho0 in enumerate(random_state(a.dim, rng, 0.5 + rng.random(n_states))):
        d0 = d_sub(rho0, n)
        i0 = fisher_n(n, rho0)
        if d0 < 1e-12:
            continue
        for t in grid:
            rho_t = semigroup_apply(a, t, rho0)
            rho_t = (rho_t + rho_t.conj().T) / 2.0
            decay = math.exp(-lam * t)
            d_t = d_sub(rho_t, n)
            i_t = fisher_n(n, rho_t)
            for val, ref, tag in ((d_t, decay * d0, "D_N"), (i_t, decay * i0, "I_N")):
                slack = val / ref - 1.0 if ref > 1e-300 else 0.0
                yield (idx, float(t), tag), slack


def decay_report_through_sigma(gen, lam, n_states=50, seed=0):
    """``check_decay_bound``'s report by the traces rule, whatever N is.

    The same start states, grid and skip rule; D_N of every state is a trace
    against ln sigma for the eigenpairs of sigma = E(rho), and I_N is tau((rho -
    sigma) ln rho) from the eigenvectors of rho, never from spectra alone.  D_N
    is clipped at 0, as in the check.
    """
    a, n = markov_pair(gen)
    e = n.expectation
    m = a.dim
    grid = default_grid(lam)
    rng = np.random.default_rng([seed, 17])
    w, u, expw, r, rho0 = _chart(random_hermitian(m, rng, 0.5 + rng.random(n_states)))
    log_r = w + (math.log(m) - np.log(expw.sum(axis=-1)))[:, None]
    sigma = e.apply(rho0)
    sigma_eig = np.linalg.eigh(sigma)
    d0, i0 = spectral_terms(rho0, (r, u, log_r), sigma_eig, rho0 - sigma)
    d0 = np.maximum(d0, 0.0)
    kept = np.flatnonzero(d0 >= DECAY_SKIP)
    rho_t = semigroup_apply(a, grid, rho0[kept]).swapaxes(0, 1)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    # each sigma stands for every time of its state
    shared = tuple(np.broadcast_to(x[kept, None], rho_t.shape[:2] + x.shape[1:]) for x in sigma_eig)
    d_t, i_t = spectral_terms(rho_t, np.linalg.eigh(rho_t), shared, rho_t - sigma[kept, None])
    d_t = np.maximum(d_t, 0.0)
    val = np.stack([d_t, i_t], axis=-1)
    ref = np.exp(-lam * grid)[:, None] * np.stack([d0, i0], axis=-1)[kept, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(ref > TINY, val / ref - 1.0, 0.0)
    return _report("entropy_decay", lam, seed, slack, lambda w: {
        "state_index": int(kept[w[0]]), "t": float(grid[w[1]]), "which": ("D_N", "I_N")[w[2]]})


def lp_slacks(gen, lam, p_list=(1.0, 2.0, 4.0, math.inf), n_x=50, seed=0):
    """Yield ((x_index, p, t), slack) for L_p contraction towards E."""
    a, n = markov_pair(gen)
    e = n.expectation
    grid = default_grid(lam if lam > 0 else 1.0, n=20)
    rng = np.random.default_rng([seed, 23])
    # odd indices are non-Hermitian probes
    x = random_hermitian(a.dim, rng, np.ones(n_x))
    x[1::2] += 1j * random_hermitian(a.dim, rng, np.ones(n_x // 2))
    for idx in range(n_x):
        x0 = x[idx] - e.apply(x[idx])
        for p in p_list:
            base = schatten_norm(x0, p)
            if base < 1e-14:
                continue
            for t in grid:
                val = schatten_norm(semigroup_apply(a, t, x0), p)
                yield (idx, p, float(t)), val / (math.exp(-lam * t) * base) - 1.0


WITNESS_KEYS = {"entropy_decay": ("state_index", "t", "which"), "lp_decay": ("x_index", "p", "t")}


def report(quantity, lam, seed, slacks):
    """The check report from (key, slack) pairs in loop order."""
    max_slack = 0.0
    witness = None
    for key, slack in slacks:
        if slack > max_slack:
            max_slack = slack
            if slack > 1e-8:
                witness = dict(zip(WITNESS_KEYS[quantity], key))
    return {"quantity": quantity, "bound": lam, "passed": witness is None,
            "slack": max_slack, "witness": witness, "seed": seed}


def simulate_decay_per_time(a, n, rho0, t_grid, lam=0.0):
    """D_N, I_A and the reference bound, one time point at a time."""
    t_grid = np.asarray(t_grid, dtype=float)
    d0 = d_sub(rho0, n)
    d_vals, i_vals = [], []
    for t in t_grid:
        rho_t = semigroup_apply(a, t, rho0)
        rho_t = (rho_t + rho_t.conj().T) / 2.0
        wmin = np.linalg.eigvalsh(rho_t).min()
        if wmin < -1e-8:
            raise ValueError(f"state developed eigenvalue {wmin:.3e} (CP violation)")
        d_vals.append(d_sub(rho_t, n))
        i_vals.append(fisher(a, rho_t))
    bound = math.e ** (-lam * t_grid) * d0 if lam > 0 else np.full_like(t_grid, d0)
    return DecayTrace(t_grid, np.array(d_vals), np.array(i_vals), np.asarray(bound))
