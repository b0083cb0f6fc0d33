"""Output checks, each computed apart from the program or from a property
the method must have.  None compares against a stored copy of an output.

Every check raises :class:`common.CheckError` on a mismatch; ``smoke.py``
feeds each one a perturbed value to show that it does.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from common import CheckError, sha256_file


def _fail(message: str) -> None:
    raise CheckError(message)


def close(name: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        _fail(f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(np.isfinite(got)) or np.any(err > limit):
        worst = float(np.max(err - limit))
        _fail(f"{name}: off by up to {worst:.3e} beyond atol={atol:g} rtol={rtol:g}")


# ---------------------------------------------------------------- artifacts


def manifest_matches(outdir: Path) -> dict:
    """Every artifact's sha256 equals the manifest's digest, and the
    manifest lists exactly the artifacts in the directory."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    listed = manifest["outputs"]
    present = {p.name for p in outdir.iterdir() if p.is_file() and p.name != "manifest.json"}
    if set(listed) != present:
        _fail(f"manifest lists {sorted(listed)} but {outdir.name} holds {sorted(present)}")
    for name, digest in listed.items():
        if sha256_file(outdir / name) != digest:
            _fail(f"sha256 of {outdir.name}/{name} differs from its manifest digest")
    return manifest


def identical_dirs(a: Path, b: Path) -> None:
    """Two runs of the same config wrote byte-identical files."""
    names_a = sorted(p.name for p in Path(a).iterdir() if p.is_file())
    names_b = sorted(p.name for p in Path(b).iterdir() if p.is_file())
    if names_a != names_b:
        _fail(f"{a} and {b} hold different files: {names_a} vs {names_b}")
    for name in names_a:
        if (Path(a) / name).read_bytes() != (Path(b) / name).read_bytes():
            _fail(f"{name} differs between two runs of the same config")


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------- switching


def transmission(insertion_loss_db: float, cells: int) -> float:
    return 10.0 ** (-cells * insertion_loss_db / 10.0)


def demux_row_sums(outputs: np.ndarray, insertion_loss_db: float) -> None:
    """Each photon crosses two lossless-coupler cells: its outputs sum to
    the two-cell transmission 10^(-2 IL / 10)."""
    close("demux row sums", outputs.sum(axis=1), np.full(len(outputs), transmission(insertion_loss_db, 2)), rtol=1e-12)


def demux_exact_routing(outputs: np.ndarray, leakage: float, insertion_loss_db: float) -> None:
    """Infinite bandwidth, bar leakage l, no phase error: every slot
    reaches its output with probability (1 - l)^2 times the transmission."""
    slots = np.arange(len(outputs))
    assigned = outputs[slots, slots % 4]
    want = (1.0 - leakage) ** 2 * transmission(insertion_loss_db, 2)
    close("demux assigned-output probability", assigned, np.full(len(outputs), want), atol=1e-12)


def demux_metrics(metrics: dict, outputs: np.ndarray, n_frames: int) -> None:
    """metrics.json agrees with the mean routed fraction of trace.csv."""
    if metrics["n_frames"] != n_frames or len(outputs) != 4 * n_frames:
        _fail(f"demux wrote {len(outputs)} slots / n_frames={metrics['n_frames']}, asked {n_frames}")
    slots = np.arange(len(outputs))
    fraction = outputs[slots, slots % 4] / outputs.sum(axis=1)
    close("demux average_probability", metrics["average_probability"], fraction.mean(), atol=1e-12)


def ideal_fringe(phases: np.ndarray, values: np.ndarray, overlap: float) -> None:
    """Ideal cell: coincidences follow (1 - x + (1 + x) cos^2 phi) / 2."""
    x = overlap
    close("ideal HOM fringe", values, (1.0 - x + (1.0 + x) * np.cos(phases) ** 2) / 2.0, atol=1e-12)


def fitted_visibility(visibility: float, overlap: float, atol: float = 1e-6) -> None:
    close("fitted visibility", visibility, overlap, atol=atol)


def poisson_visibility(visibility: float, stderr: float, overlap: float, n_sigma: float = 5.0) -> None:
    """A Poisson fringe's fitted visibility lies within n_sigma stderr of x."""
    if not (math.isfinite(stderr) and stderr > 0):
        _fail(f"Poisson fit stderr {stderr!r} is not a positive number")
    if abs(visibility - overlap) > n_sigma * stderr:
        _fail(f"Poisson visibility {visibility:.6f} is {abs(visibility - overlap) / stderr:.1f} stderr from x={overlap:.6f}")


def fringe_phases(volts: np.ndarray, phases: np.ndarray, start: float, stop: float, v_pi: float) -> None:
    """The sweep's voltages are evenly spaced and phase = pi V / V_pi."""
    close("fringe voltages", volts, np.linspace(start, stop, len(volts)), atol=1e-12)
    close("fringe phases", phases, math.pi * volts / v_pi, atol=1e-12)


def poisson_counts(values: np.ndarray) -> None:
    if np.any(values < 0) or np.any(values != np.round(values)):
        _fail("Poisson fringe holds non-integer or negative counts")


def extinction(measured_db: float, er_db: float) -> None:
    close("extinction_ratio_db(with_extinction(er))", measured_db, er_db, atol=1e-9)


def cell_loss(estimated_db: float, insertion_loss_db: float) -> None:
    close("per-cell loss from tree transmissions", estimated_db, insertion_loss_db, atol=1e-9)


# ---------------------------------------------------------------- circuit


def _coupler() -> np.ndarray:
    return np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)


def ideal_cell(theta: float, phi: float) -> np.ndarray:
    """Balanced MZI C diag(e^{i theta}, 1) C, then the external phase on
    its upper input: the mesh cell as the package documents it."""
    c = _coupler()
    return c @ np.diag([np.exp(1j * theta), 1.0]) @ c @ np.diag([np.exp(1j * phi), 1.0])


def mesh_product(mesh: dict) -> np.ndarray:
    """Transfer matrix of a mesh JSON object, multiplied out here."""
    n = int(mesh["n_modes"])
    u = np.eye(n, dtype=complex)
    for cell in mesh["cells"]:
        i, j = cell["modes"]
        u[[i, j], :] = ideal_cell(cell["theta"], cell.get("phi", 0.0)) @ u[[i, j], :]
    return np.exp(1j * np.asarray(mesh["output_phases"], dtype=float))[:, None] * u


def clements_pairs(n: int) -> list[tuple[int, int]]:
    pairs = [(top, top + 1) for col in range(n) for top in range(col % 2, n - 1, 2)]
    return pairs[: n * (n - 1) // 2]


def unitary(name: str, u: np.ndarray, atol: float = 1e-12) -> None:
    close(f"{name} is unitary", u.conj().T @ u, np.eye(len(u)), atol=atol)


def mesh_round_trip(composed: np.ndarray, target: np.ndarray, phase_count: int) -> None:
    """compose(decompose(U)) = U to 1e-9, with n(n-1) - n//2 drivable phases."""
    n = len(target)
    close("compose(decompose(U))", composed, target, atol=1e-9)
    if phase_count != n * (n - 1) - n // 2:
        _fail(f"{n}-mode mesh has {phase_count} drivable phases, expected {n * (n - 1) - n // 2}")


def voltages_realise_phases(volts: dict, phases: dict, v_pi: float) -> None:
    """pi V / V_pi equals each requested phase modulo 2 pi, with |V| <= V_pi."""
    for name, v in volts.items():
        if abs(v) > v_pi * (1.0 + 1e-12):
            _fail(f"{name}: {v} V exceeds V_pi")
        gap = math.remainder(math.pi * v / v_pi - phases[name], 2.0 * math.pi)
        if abs(gap) > 1e-9:
            _fail(f"{name}: drive misses its phase by {gap:.3e} rad")


def two_photon_closed_form(t: np.ndarray, k: int, l: int, x: float):
    """(patterns, probabilities) for one photon in each of inputs k < l."""
    n = len(t)
    patterns, probs = [], []
    for i in range(n):
        for j in range(i, n):
            a, b = t[i, k] * t[j, l], t[i, l] * t[j, k]
            if i == j:
                p = (1.0 + x) * abs(a) ** 2
            else:
                p = x * abs(a + b) ** 2 + (1.0 - x) * (abs(a) ** 2 + abs(b) ** 2)
            patterns.append((i, j))
            probs.append(p)
    return patterns, np.array(probs)


def two_photon(patterns, probs, t: np.ndarray, k: int, l: int, x: float) -> None:
    """Full two-photon distribution: closed form per pattern, total one."""
    want_patterns, want = two_photon_closed_form(t, k, l, x)
    if [tuple(p) for p in patterns] != want_patterns:
        _fail(f"two-photon patterns for inputs ({k}, {l}) differ from all i <= j pairs")
    close(f"two-photon probabilities, inputs ({k}, {l})", probs, want, atol=1e-12)
    close(f"two-photon total, inputs ({k}, {l})", np.sum(probs), 1.0, atol=1e-9)


def fidelity(value: float, p: np.ndarray, q: np.ndarray) -> None:
    """Bhattacharyya overlap sum sqrt(p q), capped at one."""
    close("statistical fidelity", value, min(float(np.sum(np.sqrt(p * q))), 1.0), atol=1e-12)


def canonical(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """u modulo port phases and conjugation: first row and first column
    real non-negative, first clearly complex entry with positive imaginary
    part."""
    w = np.array(u, dtype=complex)
    for j in range(w.shape[1]):
        if abs(w[0, j]) > tol:
            w[:, j] *= np.conj(w[0, j]) / abs(w[0, j])
    for i in range(1, w.shape[0]):
        if abs(w[i, 0]) > tol:
            w[i, :] *= np.conj(w[i, 0]) / abs(w[i, 0])
    for value in w.ravel():
        if abs(value.imag) > tol:
            return np.conj(w) if value.imag < 0 else w
    return w


def phase_free_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_F / sqrt(n)."""
    t = np.trace(b.conj().T @ a)
    alpha = np.angle(t) if t != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * alpha) * b) / math.sqrt(len(a)))


def reconstruction(fitted: np.ndarray, truth: np.ndarray) -> None:
    d = phase_free_distance(canonical(truth), np.asarray(fitted))
    if not d <= 1e-3:
        _fail(f"reconstruction is {d:.3e} from canonical_form of the truth (limit 1e-3)")


def permutation_sum(a: np.ndarray) -> complex:
    """Permanent as the plain sum over permutations (small orders only)."""
    n = len(a)
    perms = np.array(list(itertools.permutations(range(n))))
    return complex(np.sum(np.prod(a[np.arange(n), perms], axis=1)))


def permanent_small(value: complex, a: np.ndarray) -> None:
    close(f"order-{len(a)} permanent vs permutation sum", value, permutation_sum(a), rtol=1e-12, atol=1e-14)


def permanent_rank_one(value: complex, a: np.ndarray, b: np.ndarray) -> None:
    """perm(a b^T) = n! prod(a) prod(b)."""
    want = math.factorial(len(a)) * np.prod(a) * np.prod(b)
    close(f"order-{len(a)} rank-one permanent", value, want, rtol=1e-9)


def nphoton(patterns, probs, t: np.ndarray, inputs, check_every: int = 1) -> None:
    """Collision-free patterns of n photons: |perm(t[pattern, inputs])|^2,
    over all C(m, n) patterns, checked on every ``check_every``-th one."""
    want = list(itertools.combinations(range(len(t)), len(inputs)))
    if [tuple(p) for p in patterns] != want:
        _fail(f"{len(inputs)}-photon patterns are not the C({len(t)}, {len(inputs)}) combinations")
    for idx in range(0, len(want), check_every):
        sub = t[np.ix_(want[idx], list(inputs))]
        close(f"{len(inputs)}-photon pattern {want[idx]}", probs[idx], abs(permutation_sum(sub)) ** 2, atol=1e-12)
    if np.sum(probs) > 1.0 + 1e-9:
        _fail("collision-free probabilities sum above one")


# ---------------------------------------------------------------- budget


def grating_loss_db(wavelength_nm: float, center=930.0, peak_db=-3.4, bw_1db=12.0) -> float:
    """Default parabolic grating: peak_db - ((wl - center) / (bw / 2))^2, as a loss."""
    return -(peak_db - ((wavelength_nm - center) / (bw_1db / 2.0)) ** 2)


def loss_budget(payload: dict, sweep_rows: np.ndarray, cfg: dict) -> None:
    entries = cfg["entries"]
    fixed = {
        e["label"]: e["loss_db"] if "loss_db" in e else e["db_per_cm"] * e["length_cm"]
        for e in entries
    }
    total = sum(fixed.values())
    close("budget total_db", payload["total_db"], total, atol=1e-12)
    close("budget transmission", payload["end_to_end_transmission"], 10 ** (-total / 10), rtol=1e-12)
    couplers = cfg["sweep"]["coupler_labels"]
    others = sum(v for k, v in fixed.items() if k not in couplers)
    wavelengths = cfg["sweep"]["wavelengths_nm"]
    want = [10 ** (-(others + len(couplers) * grating_loss_db(wl)) / 10) for wl in wavelengths]
    close("swept wavelengths", sweep_rows[:, 0], wavelengths, atol=0.0)
    close("swept transmissions", sweep_rows[:, 1], want, rtol=1e-12)
