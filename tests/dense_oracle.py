"""Dense reference versions of state validation and projection assembly.

``DensityMatrix`` checks a block-diagonal matrix one diagonal block at a time
and ``project_and_renormalize`` writes each hermitized block once; these are
the whole-matrix versions they are tested against.
"""
import numpy as np

from qcap.errors import ValidationError
from qcap.linalg import hermitize
from qcap.states import (EIGENVALUE_FLOOR, HERMITICITY_TOL, TRACE_TOL, DensityMatrix,
                         block_form)
from qcap.typicality import (TypicalSpec, _descending_eigensystem, _eigenbasis_projector,
                             enumerate_typical, typical_mass)


def dense_validate(matrix: np.ndarray) -> None:
    """Raise the ValidationError ``DensityMatrix`` raises, from one dense eigvalsh."""
    m = np.asarray(matrix, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise ValidationError("matrix has NaN or infinite entries")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian within 1e-10")
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        raise ValidationError("matrix trace differs from 1 by more than 1e-10")
    low = float(np.min(np.linalg.eigvalsh(hermitize(m))))
    if low < EIGENVALUE_FLOOR:
        raise ValidationError(f"matrix has negative eigenvalue {low:.3e}")


def dense_projection(omega: DensityMatrix, m: int, delta: float) -> np.ndarray:
    """The projected m-fold source, accumulated into one matrix and then hermitized."""
    work, probs, branches = block_form(omega, ("C", "Q", "R"))
    d_c, d_q, d_r = work.space.dims
    eig = [_descending_eigensystem(b.reshape(d_q, d_r, d_q, d_r).trace(axis1=1, axis2=3),
                                   clip=True) for b in branches]
    spec = TypicalSpec(probs, m, delta)
    classical_mass = typical_mass(spec)
    dq_m, dr_m = d_q ** m, d_r ** m
    out = np.zeros(((d_c * d_q * d_r) ** m,) * 2, dtype=complex)
    out_view = out.reshape(d_c ** m, dq_m * dr_m, d_c ** m, dq_m * dr_m)
    perm = [2 * t for t in range(m)] + [2 * t + 1 for t in range(m)]
    for string in enumerate_typical(spec):
        joint = np.array([[1.0 + 0.0j]])
        for x in string:
            joint = np.kron(joint, branches[x])
        legs = joint.reshape((d_q, d_r) * (2 * m))
        joint = legs.transpose(perm + [2 * m + i for i in perm]).reshape(dq_m * dr_m, -1)
        proj = _eigenbasis_projector(eig, np.array(string), float(delta))
        big = np.kron(proj, np.eye(dr_m))
        cut = big @ joint @ big
        mass = float(np.trace(cut).real)
        p_string = float(np.prod(probs[list(string)]))
        idx = int(np.ravel_multi_index(string, (d_c,) * m))
        out_view[idx, :, idx, :] += (p_string / classical_mass) * (cut / mass)
    return hermitize(out)
