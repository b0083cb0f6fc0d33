"""Seeded inputs for every workload, made with numpy alone.

The same ``--seed`` gives the same inputs.  In-process workloads get one
input set per round, for more rounds than a run reaches, so every job of a
run meets a fresh target.  The six malformed configs do not depend on the
seed: each fails on every seed for the same reason.
"""

from __future__ import annotations

import math

import numpy as np

from checks import clements_pairs

#: Rounds of inputs built up front; a run cycles through them.
POOL_ROUNDS = 24

OVERLAP = 0.945


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, R's phases folded in."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_json(u: np.ndarray) -> dict:
    return {
        "schema_version": 1,
        "n": len(u),
        "re": [[float(v) for v in row] for row in u.real],
        "im": [[float(v) for v in row] for row in u.imag],
    }


# ---------------------------------------------------------------- switching

#: Switch settings of the six demux trains in each round: which switch
#: quality reading, finite or infinite bandwidth, loss, static phase error.
DEMUX_KINDS = (
    ("bar_leakage", True, False, False),
    ("extinction_db", False, True, False),
    ("bar_leakage", False, True, False),
    ("extinction_db", True, False, True),
    (None, True, True, False),
    ("bar_leakage", True, True, True),
)


def switching_round(rng: np.random.Generator, tiny: bool) -> dict:
    n_frames = 20 if tiny else 1000
    n_points = 41 if tiny else 1001
    demux = []
    for quality, finite_bw, lossy, phase_errors in DEMUX_KINDS:
        cfg = {"schema_version": 1, "experiment": "demux", "n_frames": n_frames}
        cfg["f_3db_ghz"] = float(rng.uniform(5.0, 8.0)) if finite_bw else None
        if quality == "bar_leakage":
            cfg["bar_leakage"] = float(rng.uniform(0.003, 0.02))
        elif quality == "extinction_db":
            cfg["extinction_db"] = float(rng.uniform(18.0, 30.0))
        cfg["insertion_loss_db"] = float(rng.uniform(0.1, 1.0)) if lossy else 0.0
        if phase_errors:
            cfg["phase_errors_rad"] = [float(v) for v in rng.uniform(-0.05, 0.05, 3)]
        demux.append(cfg)
    fringe = []
    for _ in range(2):
        sweep = {
            "schema_version": 1,
            "experiment": "hom-fringe",
            "overlap": float(rng.uniform(0.85, 0.99)),
            "voltage_start": 0.0,
            "voltage_stop": 9.0,
            "n_points": n_points,
        }
        fringe += [sweep, dict(sweep, poisson_mean_counts=500, seed=int(rng.integers(0, 2**31)))]
    cells = [
        (float(rng.uniform(15.0, 35.0)), float(rng.uniform(0.1, 1.5)))
        for _ in range(2 if tiny else 6)
    ]
    return {"demux": demux, "fringe": fringe, "cells": cells}


# ---------------------------------------------------------------- circuit


def rank_one_factors(n: int, rng: np.random.Generator):
    """Complex a, b with |a_i|, |b_j| in [0.5, 1.5] and uniform phases."""
    moduli = rng.uniform(0.5, 1.5, (2, n))
    angles = rng.uniform(0.0, 2.0 * math.pi, (2, n))
    a, b = moduli * np.exp(1j * angles)
    return a, b


def circuit_round(rng: np.random.Generator, tiny: bool) -> dict:
    nphoton = [(8, 3), (10, 4)] if tiny else [(8, 3), (10, 4), (10, 5), (12, 6)]
    return {
        "programs": [haar(4, rng) for _ in range(4 if tiny else 20)],
        "extinction_db": float(rng.uniform(20.0, 30.0)),
        "reconstruct": [haar(4, rng) for _ in range(1 if tiny else 6)] + [haar(6, rng) for _ in range(1 if tiny else 3)],
        "restart_seed": int(rng.integers(0, 2**31)),
        "nphoton": [[(haar(m, rng), list(range(n))) for m, n in nphoton] for _ in range(2)],
        "perm_rank_one": rank_one_factors(12 if tiny else 20, rng),
        "perm_small": [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 4, 5, 6)
        ],
    }


def layer_probes(rng: np.random.Generator, tiny: bool) -> dict:
    """Fixed-size inputs for the per-layer metrics no workload job covers."""
    big = 16 if tiny else 64
    return {
        "mesh_big": haar(big, rng),
        "perm_n4": haar(8, rng)[:4, :4],
        "perm_n12": rank_one_factors(12, rng),
        "nphoton_6in12": (haar(12, rng), list(range(6))),
    }


def pool(kind: str, seed: int, tiny: bool) -> list[dict]:
    make = switching_round if kind == "switching" else circuit_round
    rng = np.random.default_rng([seed, 1 if kind == "switching" else 2])
    return [make(rng, tiny) for _ in range(POOL_ROUNDS)]


# ---------------------------------------------------------------- cli-cold


def cli_configs(seed: int) -> list[tuple[list[str], str, dict]]:
    """(command, name, config) for the seven README-sized experiments."""
    rng = np.random.default_rng([seed, 3])
    n = 4
    cells = [
        {"modes": list(pair), "theta": float(th), "phi": float(ph)}
        for pair, th, ph in zip(
            clements_pairs(n), rng.uniform(0, 2 * math.pi, 6), rng.uniform(0, 2 * math.pi, 6)
        )
    ]
    mesh = {
        "schema_version": 1,
        "n_modes": n,
        "cells": cells,
        "output_phases": [float(v) for v in rng.uniform(0, 2 * math.pi, n)],
    }
    return [
        (["hom-fringe"], "hom-fringe", {
            "schema_version": 1, "experiment": "hom-fringe",
            "overlap": float(rng.uniform(0.85, 0.99)), "voltage_start": 0.0,
            "voltage_stop": 9.0, "n_points": 41, "poisson_mean_counts": 500,
            "seed": int(rng.integers(0, 2**31)),
        }),
        (["demux"], "demux", {
            "schema_version": 1, "experiment": "demux", "n_frames": 10,
            "repetition_period_ns": 13.8, "f_3db_ghz": 6.5,
            "bar_leakage": float(rng.uniform(0.003, 0.02)),
        }),
        (["distribution"], "distribution", {
            "schema_version": 1, "experiment": "distribution",
            "unitary": matrix_json(haar(n, rng)), "input_modes": [0, 1], "overlap": OVERLAP,
        }),
        (["mesh", "decompose"], "mesh-decompose", {
            "schema_version": 1, "experiment": "mesh-decompose", "unitary": matrix_json(haar(n, rng)),
        }),
        (["mesh", "compose"], "mesh-compose", {
            "schema_version": 1, "experiment": "mesh-compose", "mesh": mesh,
        }),
        (["reconstruct"], "reconstruct", {
            "schema_version": 1, "experiment": "reconstruct", "unitary": matrix_json(haar(n, rng)),
            "overlap": OVERLAP, "seed": int(rng.integers(0, 2**31)),
        }),
        (["loss-budget"], "loss-budget", {
            "schema_version": 1, "experiment": "loss-budget",
            "entries": [
                {"label": "coupler_in", "loss_db": 3.4},
                {"label": "chip", "db_per_cm": 0.3, "length_cm": float(rng.uniform(1.0, 3.0))},
                {"label": "coupler_out", "loss_db": 3.4},
            ],
            "sweep": {
                "wavelengths_nm": [920.0, 930.0, 940.0],
                "coupler_labels": ["coupler_in", "coupler_out"],
                "grating": {},
            },
        }),
    ]


def cli_cell(seed: int) -> tuple[float, float]:
    """(extinction dB, loss dB) of the switch cell ``cli-cold`` calibrates
    in a fresh process, drawn as in ``switching``."""
    rng = np.random.default_rng([seed, 5])
    return float(rng.uniform(15.0, 35.0)), float(rng.uniform(0.1, 1.5))


_BUDGET = {
    "schema_version": 1,
    "experiment": "loss-budget",
    "entries": [{"label": "coupler_in", "loss_db": 3.4}, {"label": "coupler_out", "loss_db": 3.4}],
}
_SWEEP = {"wavelengths_nm": [930.0], "coupler_labels": ["coupler_in"], "grating": {}}
_IDENTITY = {"schema_version": 1, "n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}

#: Configs that should exit 2 with ``config error:`` lines.  Each one
#: passes validation today and crashes in the runner with a traceback.
MALFORMED = [
    (["loss-budget"], "bad-coupler-label", dict(_BUDGET, sweep=dict(_SWEEP, coupler_labels=["nope"]))),
    (["loss-budget"], "bad-grating-key", dict(_BUDGET, sweep=dict(_SWEEP, grating={"colour": 1}))),
    (["loss-budget"], "string-loss", dict(_BUDGET, entries=[{"label": "chip", "loss_db": "abc"}])),
    (["mesh", "compose"], "mesh-no-schema", {
        "schema_version": 1, "experiment": "mesh-compose",
        "mesh": {"n_modes": 2, "cells": [{"modes": [0, 1], "theta": 0.5}], "output_phases": [0.0, 0.0]},
    }),
    (["reconstruct"], "statistics-no-pairs", {
        "schema_version": 1, "experiment": "reconstruct", "seed": 0,
        "statistics": {"singles": [[1.0, 0.0], [0.0, 1.0]]},
    }),
    (["distribution"], "nan-overlap", {
        "schema_version": 1, "experiment": "distribution", "unitary": _IDENTITY,
        "input_modes": [0, 1], "overlap": float("nan"),
    }),
]
