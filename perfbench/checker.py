"""Independent checker for ``singwave solve`` outputs.

Shares no code with the ``singwave`` package (the eigenvalues come from
the generator's own operator): it reads ``problem.json``
and ``solution.csv`` with its own parsers, evaluates the five discrete
equations itself, and, where E is invertible, marches the explicit
scheme directly and compares node by node.  A rejection is checked
against the exit code and the ``REJECTED: <condition>`` line of
``report.txt``.  Every check returns a list of error strings; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

import workloads

RESIDUAL_TOL = 1e-8
MARCH_TOL = 1e-8
EIGEN_TOL = 1e-9
_MATRIX_KEYS = ("E", "A", "A1", "A2", "B1", "B2")


def _complex(value):
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def read_problem(path: str) -> dict:
    """The problem file as arrays; M and r are derived from N, k, T."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    prob = {key: np.array([[_complex(v) for v in row] for row in doc[key]])
            for key in (*_MATRIX_KEYS, "F", "G")}
    N, k, T = int(doc["N"]), float(doc["k"]), float(doc["T"])
    prob.update(m=int(doc["m"]), alpha=float(doc["alpha"]),
                beta=float(doc["beta"]), N=N, k=k, T=T,
                M=int(round(T / k)), r=k * N)
    return prob


def read_solution(path: str, prob: dict) -> np.ndarray:
    """solution.csv as an (N+1, M+1, m) complex grid.  Raises ValueError
    on a wrong header, wrong node coordinates, or missing or repeated
    nodes."""
    N, M, m = prob["N"], prob["M"], prob["m"]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    want = ["i", "j", "x", "t"] + [f"u{c}_{part}" for c in range(m)
                                   for part in ("re", "im")]
    if header != want:
        raise ValueError(f"header {header[:6]}... is not {want[:6]}...")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != ((N + 1) * (M + 1), len(want)):
        raise ValueError(f"table shape {data.shape} does not match the grid")
    i = data[:, 0].astype(int)
    j = data[:, 1].astype(int)
    if (i.min() < 0 or i.max() > N or j.min() < 0 or j.max() > M
            or not np.array_equal(data[:, 0], i) or not np.array_equal(
                data[:, 1], j)):
        raise ValueError("node indices outside the grid")
    seen = np.zeros((N + 1, M + 1), dtype=int)
    np.add.at(seen, (i, j), 1)
    if not np.all(seen == 1):
        raise ValueError("nodes missing or repeated")
    if (np.abs(data[:, 2] - i / N).max() > 1e-12
            or np.abs(data[:, 3] - j * prob["k"]).max() > 1e-12 * (1 + prob["T"])):
        raise ValueError("x or t column does not match the node indices")
    U = np.empty((N + 1, M + 1, m), dtype=complex)
    U[i, j] = data[:, 4::2] + 1j * data[:, 5::2]
    return U


def data_norm(prob: dict) -> float:
    """1 + largest data entry, velocity scaled by k to displacement units."""
    return 1.0 + max(np.abs(prob["F"]).max(),
                     prob["k"] * np.abs(prob["G"]).max())


def residuals(U: np.ndarray, prob: dict) -> dict:
    """The five discrete residuals, each the largest entry of its defect
    divided by ``data_norm``: interior stencil, left and right endpoint
    relations at every time level, initial position, and initial
    velocity (as U(i,1) - U(i,0) - k*G(i))."""
    N, M, k, r = prob["N"], prob["M"], prob["k"], prob["r"]
    E, A = prob["E"], prob["A"]
    dtt = U[1:N, 2:] - 2.0 * U[1:N, 1:M] + U[1:N, :M - 1]
    dxx = U[2:, 1:M] - 2.0 * U[1:N, 1:M] + U[:N - 1, 1:M]
    interior = dtt @ E.T - r * r * (dxx @ A.T)
    left = U[0] @ prob["A1"].T + N * (U[1] - U[0]) @ prob["A2"].T
    right = U[N] @ prob["B1"].T + N * (U[N] - U[N - 1]) @ prob["B2"].T
    pos = U[:, 0] - prob["F"]
    vel = U[:, 1] - U[:, 0] - k * prob["G"]
    scale = data_norm(prob)

    def worst(defect):
        return float(np.abs(defect).max()) / scale if defect.size else 0.0

    return {"interior": worst(interior), "left": worst(left),
            "right": worst(right), "init_pos": worst(pos),
            "init_vel": worst(vel)}


def march(prob: dict):
    """The explicit scheme marched step by step when E is invertible,
    None otherwise.  Endpoint values solve the endpoint relations
    minimum-norm at each level."""
    E = prob["E"]
    if np.linalg.cond(E) > 1e12:
        return None
    N, M, k, r, m = prob["N"], prob["M"], prob["k"], prob["r"], prob["m"]
    step = (r * r * np.linalg.solve(E, prob["A"])).T
    left = np.linalg.pinv(prob["A1"] - N * prob["A2"]) @ (-N * prob["A2"])
    right = np.linalg.pinv(prob["B1"] + N * prob["B2"]) @ (N * prob["B2"])
    V = np.zeros((N + 1, M + 1, m), dtype=complex)
    V[:, 0] = prob["F"]
    V[:, 1] = prob["F"] + k * prob["G"]
    for j in range(1, M):
        dxx = V[2:, j] - 2.0 * V[1:N, j] + V[:N - 1, j]
        V[1:N, j + 1] = 2.0 * V[1:N, j] - V[1:N, j - 1] + dxx @ step
        V[0, j + 1] = left @ V[1, j + 1]
        V[N, j + 1] = right @ V[N - 1, j + 1]
    return V


def eigenvalues(prob: dict) -> np.ndarray:
    """Spatial eigenvalues of the second-difference operator with the
    problem's endpoint scalars, ascending."""
    return workloads.sl_basis(prob["N"], prob["alpha"], prob["beta"])[0]


def _result_line(out_dir: str):
    path = os.path.join(out_dir, "report.txt")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    for line in lines:
        if line == "ACCEPTED" or line.startswith("REJECTED: "):
            return line
    return None


def failure_condition(code: int, out_dir: str) -> str:
    """What a failed solve names: its report's condition, else the exit
    code."""
    line = _result_line(out_dir)
    if line and line.startswith("REJECTED: "):
        return line[len("REJECTED: "):]
    return f"exit-{code}"


def check_accepted(prob: dict, out_dir: str):
    """Errors of an accepted solve's outputs, and the grid it wrote."""
    errors = []
    if _result_line(out_dir) != "ACCEPTED":
        errors.append("report.txt does not end in ACCEPTED")
    try:
        U = read_solution(os.path.join(out_dir, "solution.csv"), prob)
    except (OSError, ValueError) as exc:
        return errors + [f"solution.csv: {exc}"], None
    for name, value in residuals(U, prob).items():
        if not value <= RESIDUAL_TOL:
            errors.append(f"{name} residual {value:.3e} > {RESIDUAL_TOL:g}")
    V = march(prob)
    if V is not None:
        gap = float(np.abs(U - V).max()) / (1.0 + float(np.abs(V).max()))
        if not gap <= MARCH_TOL:
            errors.append(f"explicit march differs by {gap:.3e}")
    try:
        table = np.loadtxt(os.path.join(out_dir, "eigen.csv"),
                           delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return errors + [f"eigen.csv: {exc}"], U
    lam = eigenvalues(prob)
    if (table.shape != (lam.size, 2)
            or np.abs(table[:, 1] - lam).max() > EIGEN_TOL * (1 + lam.max())):
        errors.append("eigen.csv does not hold the spatial eigenvalues")
    return errors, U


def check_rejected(code: int, out_dir: str, condition: str) -> list:
    """Errors of a solve that must exit 2 naming ``condition``."""
    errors = []
    if code != 2:
        errors.append(f"exit code {code}, expected 2")
    line = _result_line(out_dir)
    if line != f"REJECTED: {condition}":
        errors.append(f"report says {line!r}, expected "
                      f"'REJECTED: {condition}'")
    if os.path.exists(os.path.join(out_dir, "solution.csv")):
        errors.append("a rejected solve wrote solution.csv")
    return errors
