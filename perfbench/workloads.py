"""Seeded problem generation for the benchmark workloads.

Every input is built here with numpy alone, from the workload name and
the seed, and written as a ``problem.json`` document; nothing is taken
from the ``singwave`` package, so a change to its fixtures cannot change
what the benchmark measures.  Each problem carries the outcome the
benchmark expects of it: ``accept`` (solved, verified, checked) or
``reject`` with the admissibility condition it breaks by construction.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("demo-large", "batch-mixed", "reference-dense")

# The paper's demo system: singular E, endpoint couplings mixing all
# components, alpha = 2 and beta = 1, so the lowest spatial mode has
# eigenvalue 0 and does not propagate.
DEMO = {
    "E": [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    "A": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "A1": [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "A2": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
    "B1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "B2": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
DEMO_ALPHA, DEMO_BETA = 2.0, 1.0
# Orthogonal projector onto the demo's propagating subspace {u2 = 0}
# (the range of Ehat Ehat^D); reference_deviation compares there.
DEMO_PROJECTOR = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
MATRIX_KEYS = ("E", "A", "A1", "A2", "B1", "B2")

DEMO_LARGE = {"N": 128, "M": 512, "r": 0.25}
REFERENCE = {"N": 8, "M": 48, "r": 0.25}
WARMUP = {"N": 4, "M": 8, "r": 0.25}
REJECT = {"N": 8, "M": 32, "r": 0.25}
# batch-mixed sizes (N, M); the coupled m=12 systems span N 64-128 and
# M 4-8.  Only the data depend on the seed, so every pass does the same
# work whatever the seed.
COUPLED_SIZES, COUPLED_BLOCKS = ((64, 8), (96, 6), (128, 4)), 4
SMALL_SIZES = ((8, 32), (16, 64))


def sl_basis(N: int, alpha: float, beta: float):
    """Eigenpairs of the interior second-difference operator with the
    endpoint relations u(0) + alpha*N*(u(1)-u(0)) = 0 and
    u(N) + beta*N*(u(N)-u(N-1)) = 0 folded into its corners."""
    aN, bN = alpha * N, beta * N
    a_eff, b_eff = -aN / (1.0 - aN), bN / (1.0 + bN)
    n = N - 1
    S = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    S[0, 0] -= a_eff
    S[-1, -1] -= b_eff
    lam, V = np.linalg.eigh(S)
    return lam, V


def _smooth(rng, V, skip_null=None):
    """Random interior profile with mode l weighted by 1/l; the column
    index ``skip_null`` (a non-propagating mode) gets no weight."""
    n = V.shape[1]
    amp = rng.standard_normal(n) / np.arange(1, n + 1)
    if skip_null is not None:
        amp[skip_null] = 0.0
    return V @ amp


def _with_ends(interior, A1, A2, B1, B2, N):
    """Add endpoint rows satisfying both endpoint relations exactly."""
    Lmap = np.linalg.solve(A1 - N * A2, -N * A2)
    Rmap = np.linalg.solve(B1 + N * B2, N * B2)
    full = np.zeros((N + 1, interior.shape[1]))
    full[1:N] = interior
    full[0] = Lmap @ interior[0]
    full[N] = Rmap @ interior[-1]
    return full


def _doc(mats, alpha, beta, N, M, r, F, G) -> dict:
    k = r / N
    doc = {"m": int(np.asarray(mats["E"]).shape[0])}
    for key in MATRIX_KEYS:
        doc[key] = np.asarray(mats[key], dtype=float).tolist()
    doc.update(alpha=alpha, beta=beta, N=N, k=k, T=M * k,
               F=np.asarray(F, dtype=float).tolist(),
               G=np.asarray(G, dtype=float).tolist())
    return doc


def demo_data(rng, N: int):
    """Admissible demo data: position in u0 and u1, velocity only in u1
    and without the non-propagating lowest mode; u2 stays zero."""
    lam, V = sl_basis(N, DEMO_ALPHA, DEMO_BETA)
    null = int(np.argmin(np.abs(lam)))
    F = np.zeros((N - 1, 3))
    G = np.zeros((N - 1, 3))
    F[:, 0] = _smooth(rng, V)
    F[:, 1] = _smooth(rng, V)
    G[:, 1] = _smooth(rng, V, skip_null=null)
    mats = {key: np.array(DEMO[key]) for key in MATRIX_KEYS}
    ends = (mats["A1"], mats["A2"], mats["B1"], mats["B2"], N)
    return _with_ends(F, *ends), _with_ends(G, *ends)


def demo_problem(rng, N: int, M: int, r: float) -> dict:
    F, G = demo_data(rng, N)
    return _doc(DEMO, DEMO_ALPHA, DEMO_BETA, N, M, r, F, G)


def coupled_problem(rng, N: int, M: int, r: float) -> dict:
    """``COUPLED_BLOCKS`` demo systems side by side, seen through a random
    orthogonal change of variables u = Q v.  Every matrix X becomes
    Q X Q^T and every nodal vector Q v, so E stays singular and the
    endpoint kernel keeps its dimension while all components couple."""
    m = 3 * COUPLED_BLOCKS
    mats = {key: np.zeros((m, m)) for key in MATRIX_KEYS}
    F = np.zeros((N + 1, m))
    G = np.zeros((N + 1, m))
    for b in range(COUPLED_BLOCKS):
        sl = slice(3 * b, 3 * b + 3)
        for key in MATRIX_KEYS:
            mats[key][sl, sl] = DEMO[key]
        F[:, sl], G[:, sl] = demo_data(rng, N)
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    Q = Q * np.sign(np.diag(R))
    mats = {key: Q @ X @ Q.T for key, X in mats.items()}
    return _doc(mats, DEMO_ALPHA, DEMO_BETA, N, M, r, F @ Q.T, G @ Q.T)


def _dirichlet(m: int) -> dict:
    eye, zero = np.eye(m), np.zeros((m, m))
    return {"A1": eye, "A2": zero, "B1": eye, "B2": zero}


def scalar_wave_problem(rng, N: int, M: int, r: float) -> dict:
    """u_tt = u_xx with clamped ends and random smooth data."""
    lam, V = sl_basis(N, 0.0, 0.0)
    F = np.zeros((N + 1, 1))
    G = np.zeros((N + 1, 1))
    F[1:N, 0] = _smooth(rng, V)
    G[1:N, 0] = _smooth(rng, V)
    mats = {"E": np.eye(1), "A": np.eye(1), **_dirichlet(1)}
    return _doc(mats, 0.0, 0.0, N, M, r, F, G)


def jordan_problem() -> dict:
    """E = I, A = [[1, 1], [0, 1]] with clamped ends and data in both
    components.  The explicit scheme is well defined here; the data do
    not depend on the seed, so the outcome is the same on every pass."""
    N, M, r = 8, 32, 0.5
    x = np.arange(N + 1) / N
    F = np.stack([np.sin(np.pi * x), x * (1.0 - x)], axis=1)
    G = np.stack([0.5 * np.sin(2.0 * np.pi * x), np.sin(np.pi * x)], axis=1)
    F[[0, N]] = 0.0
    G[[0, N]] = 0.0
    mats = {"E": np.eye(2), "A": np.array([[1.0, 1.0], [0.0, 1.0]]),
            **_dirichlet(2)}
    return _doc(mats, 0.0, 0.0, N, M, r, F, G)


def rejection_problems(rng) -> list:
    """One problem per admissibility gate, each inadmissible by
    construction: (condition, document)."""
    N, M, r = REJECT["N"], REJECT["M"], REJECT["r"]
    out = []

    # position data with a component the pencil projector removes
    doc = demo_problem(rng, N, M, r)
    F = np.array(doc["F"])
    F[1:N, 2] += 0.5 + rng.random()
    doc["F"] = F.tolist()
    out.append(("projector-data-mismatch", doc))

    # B2 = diag(1, 0, 1) makes u1 leave the endpoint kernel
    doc = demo_problem(rng, N, M, r)
    doc["B2"] = np.diag([1.0, 0.0, 1.0]).tolist()
    out.append(("data-outside-boundary-kernel", doc))

    # A2 = B2 = 0, A1 = B1 = I and alpha = beta = 1: full-rank endpoints
    doc = demo_problem(rng, N, M, r)
    doc.update({key: val.tolist() for key, val in _dirichlet(3).items()},
               alpha=1.0, beta=1.0)
    out.append(("boundary-matrix-full-rank", doc))

    # scalar wave at N = 2 with r^2 * lambda_1 = 4: the two propagator
    # roots coincide at -1 and position-only data needs both branches
    k = np.sqrt(2.0) / 2.0
    F = np.zeros((3, 1))
    F[1, 0] = 0.5 + rng.random()
    mats = {"E": np.eye(1), "A": np.eye(1), **_dirichlet(1)}
    out.append(("rho-degenerate",
                _doc(mats, 0.0, 0.0, 2, 4, 2.0 * k, F, np.zeros((3, 1)))))
    return out


def _entry(name, doc, expect, condition=None) -> dict:
    return {"name": name, "doc": doc, "expect": expect,
            "condition": condition}


def batch_list(seed: int) -> list:
    """The fixed, seeded problem list that one batch-mixed pass runs."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for idx, (N, M) in enumerate(COUPLED_SIZES):
        out.append(_entry(f"coupled{idx}",
                          coupled_problem(rng, N, M, 0.25), "accept"))
    for idx, (N, M) in enumerate(SMALL_SIZES):
        out.append(_entry(f"demo{idx}", demo_problem(rng, N, M, 0.25),
                          "accept"))
    for idx, (N, M) in enumerate(SMALL_SIZES):
        out.append(_entry(f"scalar{idx}",
                          scalar_wave_problem(rng, N, M, 0.5), "accept"))
    for condition, doc in rejection_problems(rng):
        out.append(_entry(f"reject-{condition}", doc, "reject", condition))
    out.append(_entry("jordan", jordan_problem(), "accept"))
    return out


def problem(workload: str, seed: int, index: int) -> dict:
    """Problem ``index`` of a single-problem workload."""
    rng = np.random.default_rng([seed, 1, index])
    size = DEMO_LARGE if workload == "demo-large" else REFERENCE
    return _entry(f"{workload}{index}",
                  demo_problem(rng, size["N"], size["M"], size["r"]),
                  "accept")


def warmup_problem() -> dict:
    """The small, seed-independent problem every process runs once
    during set-up."""
    rng = np.random.default_rng(0)
    return _entry("warmup", demo_problem(rng, WARMUP["N"], WARMUP["M"],
                                         WARMUP["r"]), "accept")


def _dump(entry: dict, out_dir: str) -> dict:
    """Write the entry's document as ``<name>.json`` under ``out_dir``
    and put its path in its place."""
    path = os.path.join(out_dir, entry["name"] + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry.pop("doc"), fh)
    entry["path"] = path
    return entry


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs every process of one run shares under ``out_dir``
    and return the manifest they read: the warm-up problem and, on
    batch-mixed, the fixed list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    batch = None
    if workload == "batch-mixed":
        batch = [_dump(e, out_dir) for e in batch_list(seed)]
    return {"workload": workload, "seed": seed, "out_dir": out_dir,
            "warmup": _dump(warmup_problem(), out_dir), "batch": batch}


def sample(manifest: dict, index: int) -> list:
    """The problems of sample ``index``: the whole fixed list on
    batch-mixed, else problem ``index``, generated and written now so
    that no input comes round twice however many samples a run takes."""
    if manifest["batch"] is not None:
        return manifest["batch"]
    entry = problem(manifest["workload"], manifest["seed"], index)
    return [_dump(entry, manifest["out_dir"])]
