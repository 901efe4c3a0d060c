"""A closed-form oracle for random circuits under Pauli noise.

Random circuits are Clifford: {i, x, y, z, h} and the CNOT. A Clifford cycle
maps each Pauli string to one Pauli string up to sign (Gottesman,
quant-ph/9807006), and a Pauli channel scales a string by the product over
its qubits of lambda(label), with lambda_X = 1 - 2 (e_y + e_z) and the
others alike. So for a pure input with Pauli vector v (Tr(P rho) / 2^n) the
fidelity with the noise-free output is F = 2^n sum_p A(p) v_p^2, where A(p)
is the product over cycles of the scaling of p's label after that cycle's
gates; the signs cancel in the square.

The oracle tracks labels only: h swaps X and Z, a CNOT (c, t) sets
x_t ^= x_c and z_c ^= z_t, and the Paulis keep every label. It shares no
code with the plan's map tables, its composition, its kernel or its CNOT
gathers; it reads only the letters and flips that `_draw_chunk` draws,
which `tests/test_raw_draws.py` checks against numpy.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qnoisebench import harness
from qnoisebench.benchmarks import _RANDOM_KEYS, _draw_chunk
from qnoisebench.harness import ExperimentConfig, run_experiment
from qnoisebench.noise import LEVEL_PARAMS
from qnoisebench.states import random_product_factors

WORKLOAD = (Path(__file__).parents[1] / "perfbench" / "workloads"
            / "random4_pauli_sweep.json")
NAMES = [name for name, _ in _RANDOM_KEYS]


def pauli_noise_fidelities(letters, flips, factors, e):
    """F = 2^n sum_p A(p) v_p^2 per trial: letters (T, depth, n) naming
    gates by NAMES, flips[t][k] the CNOTs (control, target) of cycle k,
    product inputs factors (T, n, 2), Pauli noise probabilities e = (ex,
    ey, ez) after every cycle on every qubit."""
    n = letters.shape[2]
    labels = np.array(list(itertools.product(range(4), repeat=n)))  # I X Y Z
    # lambda by (x bit, z bit): I, Z; X, Y.
    lam = np.array([[1.0, 1 - 2 * (e[0] + e[1])],
                    [1 - 2 * (e[1] + e[2]), 1 - 2 * (e[0] + e[2])]])
    out = []
    for t in range(len(letters)):
        a, b = factors[t, :, 0], factors[t, :, 1]
        bloch = [np.ones(n), 2 * (a.conj() * b).real,
                 2 * (a.conj() * b).imag, abs(a) ** 2 - abs(b) ** 2]
        v2 = np.prod((np.array(bloch).T[np.arange(n), labels] / 2) ** 2, 1)
        x, z = np.isin(labels, (1, 2)), np.isin(labels, (2, 3))
        scale = np.ones(len(labels))
        for k, row in enumerate(letters[t]):
            assert {NAMES[i] for i in row} <= set("ixyzh")
            h = np.array([NAMES[i] == "h" for i in row])
            x[:, h], z[:, h] = z[:, h], x[:, h]
            for c, target in flips[t][k]:
                x[:, target] ^= x[:, c]
                z[:, c] ^= z[:, target]
            scale *= lam[x.astype(int), z.astype(int)].prod(axis=1)
        out.append(2 ** n * (scale * v2).sum())
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_random4_rows_equal_the_closed_form(monkeypatch, seed):
    """The random4 workload's rows, with their means left unrounded, equal
    the closed form over the same trials within 1e-12: each trial's input
    and circuit come from its `SeedSequence((seed, sweep, trial))` children
    0 and 1, as in `harness._trial_values`."""
    fields = json.loads(WORKLOAD.read_text())
    cfg = ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in fields.items()}, seed=seed)
    want, sweep = {}, 0
    for level in cfg.levels:
        p = LEVEL_PARAMS[cfg.noise][level]
        for depth in range(cfg.depth_range[0], cfg.depth_range[1] + 1,
                           cfg.depth_range[2]):
            children = [np.random.SeedSequence((seed, sweep, t)).spawn(2)
                        for t in range(cfg.trials)]
            factors = random_product_factors(4, [c[0] for c in children])
            letters, flips = _draw_chunk(4, depth, [c[1] for c in children])
            want[p, depth] = pauli_noise_fidelities(
                letters, flips, factors, (p / 3, p / 3, p / 3)).mean()
            sweep += 1
    monkeypatch.setattr(harness, "_round10", float)
    rows = run_experiment(cfg)
    assert len(rows) == len(want)
    for row in rows:
        assert abs(row.mean - want[row.param, row.depth]) <= 1e-12, row
