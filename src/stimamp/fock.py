"""Linear algebra for single-photon polarization and the symmetric two-photon subspace.

Amplitude vectors are real float64; single-photon ones live over the
dipole-aligned basis {|0>, |pi/2>}.
Two-photon amplitudes live over the ordered basis (|2,0>, |1,1>, |0,2>):
index 0 = both photons along the dipole, 1 = one in each mode, 2 = both
perpendicular.  The rotation family places |1,1> centrally so the matrix
rows read directly as the rotated-basis expansions.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance of input validation: how far from orthogonal a matrix may be.
ATOL_INPUT = 1e-9

# Dipole-frame two-photon basis vectors.
E20 = np.array([1.0, 0.0, 0.0])
E11 = np.array([0.0, 1.0, 0.0])
E02 = np.array([0.0, 0.0, 1.0])


def single_photon_state(theta: float) -> np.ndarray:
    """Real amplitudes (cos theta, sin theta) of |theta> in the dipole basis."""
    return np.array([np.cos(theta), np.sin(theta)])


def rotation2(theta: float) -> np.ndarray:
    """2x2 rotation taking the dipole axis onto the theta direction."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def two_photon_rotation(theta: float) -> np.ndarray:
    """3x3 orthogonal rotation on the symmetric two-photon subspace.

    Row i is the expansion of the rotated basis state i in the dipole
    frame, so row 0 reads (cos^2, sin(2 theta)/sqrt(2), sin^2).
    Use apply_rotation to act on amplitude vectors.
    """
    # math on Python floats gives numpy's scalar doubles at a fraction of the cost.
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    s2t = math.sin(2.0 * theta)
    c2t = math.cos(2.0 * theta)
    a = (1.0 / math.sqrt(2.0)) * s2t
    # One flat list is cheaper to convert than three rows.
    return np.array(
        [
            c2, a, s2,
            -a, c2t, a,
            s2, -a, c2,
        ]
    ).reshape(3, 3)


def symmetric_lift(rot: np.ndarray) -> np.ndarray:
    """Restrict rot (x) rot to the symmetric two-photon subspace.

    Independent of two_photon_rotation: built from the tensor square with
    the normalized embedding |1,1> = (|01> + |10>)/sqrt(2).  Returns the
    same row convention as two_photon_rotation (rows are rotated states).
    """
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.allclose(rot.T @ rot, np.eye(2), atol=ATOL_INPUT):
        raise ValueError("matrix is not orthogonal")
    # Isometry from the symmetric subspace into the 4-dim product space,
    # product basis ordered (|00>, |01>, |10>, |11>).
    r = 1.0 / np.sqrt(2.0)
    embed = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, r, 0.0],
            [0.0, r, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    sym = embed.T @ np.kron(rot, rot) @ embed
    # sym maps amplitude vectors (columns are rotated states); transpose to
    # the row convention used throughout.
    return sym.T


def apply_rotation(rot: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Rotate a two-photon amplitude vector; the result has the state's dtype.

    With rows holding the rotated-state expansions, amplitudes transform
    with the transpose: basis vector i maps onto row i.
    """
    return rot.T @ state


def projection_triple(state: np.ndarray) -> np.ndarray:
    """Probabilities |amplitude|^2 of the dipole-frame outcomes (|2,0>, |1,1>, |0,2>)."""
    return np.abs(state) ** 2
