"""Model construction for the dissipative entanglement-preparation scheme.

Two three-level atoms (levels 0, 1, 2) share one cavity mode.  A weak
microwave field mixes levels 0 and 1, a weak optical drive pumps 0 -> 2, and
a strong coupling exchanges the 1 <-> 2 transition with a cavity photon.
Spontaneous emission from level 2 and cavity photon loss make the dynamics
dissipative.  The strong coupling confines the weak dynamics to its own
degenerate subspaces, which is what the reduced five-level models describe.

Two drive layouts are provided: a symmetric layout whose steady state is the
two-atom singlet, and an asymmetric layout (single-atom drive, opposite-sign
microwave) that stabilizes the three-term superposition (|00>+|10>+|11>)/sqrt(3).

Full-model basis: atom A (3) x atom B (3) x cavity Fock space (n_max+1),
index ((a*3 + b)*(n_max+1) + n).  Reduced bases are fixed as
{|00>, |T>, |S>, |11>, |D>} and {|00>, |01>, |10>, |11>, |D>} respectively;
every serialized vector or matrix uses these orderings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .operators import Frame, blas_matmul, hermiticity_defect, parity_frame, tensor_product

# Constructed Hamiltonians are algebraically Hermitian; anything worse than
# rounding noise means a builder bug.
HERMITICITY_TOL = 1e-12

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

STATE_LABELS = ("S", "T", "D", "t2", "g00", "g01", "g10", "g11")

BELL_EFFECTIVE_LABELS = ("00", "T", "S", "11", "D")
KLM_EFFECTIVE_LABELS = ("00", "01", "10", "11", "D")


class Variant(enum.Enum):
    """Which of the four models to build."""

    BELL_FULL = "bell_full"
    BELL_EFFECTIVE = "bell_effective"
    KLM_FULL = "klm_full"
    KLM_EFFECTIVE = "klm_effective"

    @property
    def is_full(self) -> bool:
        return self in (Variant.BELL_FULL, Variant.KLM_FULL)

    @property
    def is_klm(self) -> bool:
        return self in (Variant.KLM_FULL, Variant.KLM_EFFECTIVE)

    @classmethod
    def parse(cls, text: str) -> "Variant":
        """Accept both snake_case values and CamelCase aliases."""
        aliases = {
            "bellfull": cls.BELL_FULL,
            "belleffective": cls.BELL_EFFECTIVE,
            "klmfull": cls.KLM_FULL,
            "klmeffective": cls.KLM_EFFECTIVE,
        }
        key = text.strip().lower().replace("_", "").replace("-", "")
        if key not in aliases:
            valid = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {text!r}; expected one of: {valid}")
        return aliases[key]


@dataclass(frozen=True)
class ModelParams:
    """Physical rates in units of the atom-cavity coupling g.

    Parameters
    ----------
    omega : float
        Optical drive rate (0 -> 2 pump).
    omega_mw : float
        Microwave mixing rate between levels 0 and 1.
    delta : float
        Detuning of the microwave field; also sets the rotating-frame shift
        of the cavity mode.
    gamma : float
        Total spontaneous-emission rate out of level 2, split evenly between
        the 2 -> 0 and 2 -> 1 channels.
    kappa : float
        Cavity photon-loss rate.
    variant : Variant
        Which model to build.
    phi : float
        Relative phase of the optical drive on atom B (symmetric layout only).
    n_max : int
        Cavity Fock-space truncation for the full models.
    g : float
        Atom-cavity coupling; the rate unit, 1 by convention.
    """

    omega: float
    omega_mw: float
    delta: float
    gamma: float
    kappa: float
    variant: Variant
    phi: float = math.pi
    n_max: int = 2
    g: float = 1.0

    def __post_init__(self):
        for name in ("omega", "omega_mw", "delta", "gamma", "kappa", "phi", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("omega", "omega_mw", "gamma", "kappa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.g <= 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if int(self.n_max) != self.n_max or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max}")
        if self.variant.is_full and self.n_max < 1:
            raise ValueError("full models need n_max >= 1 to host a cavity photon")

    @property
    def dim(self) -> int:
        return 9 * (self.n_max + 1) if self.variant.is_full else 5

    def with_variant(self, variant: Variant) -> "ModelParams":
        return replace(self, variant=variant)


@dataclass(frozen=True)
class MasterEquationSpec:
    """A Hamiltonian plus an ordered list of collapse operators.

    The collapse-operator order is part of the contract: downstream
    projection and reporting code identifies channels by position.

    symmetry, when set, is a signed basis permutation ``(perm, sign)``, the
    unitary ``U|k> = sign[k] |perm[k]>``, that the model is expected to be
    invariant under; ``frame`` checks it on the operators, and the solvers
    work on the generator's two parity blocks separately where it holds.
    """

    hamiltonian: np.ndarray
    collapse_ops: tuple
    basis_labels: tuple
    params: ModelParams
    symmetry: tuple | None = None
    # Set by RateFamily.at only; dataclasses.replace drops it.
    _frame: Frame | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(
            self, "collapse_ops", tuple(np.asarray(c, dtype=complex) for c in self.collapse_ops)
        )
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        # A NaN defect would pass the hermiticity check below.
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian entries must be finite")
        if hermiticity_defect(h) > HERMITICITY_TOL:
            raise ValueError(
                f"hamiltonian hermiticity defect {hermiticity_defect(h):.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )
        for k, c in enumerate(self.collapse_ops):
            if c.shape != h.shape:
                raise ValueError(f"collapse operator {k} shape {c.shape} != {h.shape}")
            if not np.isfinite(c).all():
                raise ValueError(f"collapse operator {k} entries must be finite")
        if len(self.basis_labels) != h.shape[0]:
            raise ValueError(
                f"{len(self.basis_labels)} basis labels for dimension {h.shape[0]}"
            )
        if self.symmetry is not None:
            perm, sign = (np.asarray(a).reshape(-1) for a in self.symmetry)
            if perm.size != h.shape[0] or sign.size != h.shape[0]:
                raise ValueError(
                    f"symmetry of size {perm.size}, {sign.size} for dimension {h.shape[0]}"
                )
            object.__setattr__(self, "symmetry", (perm.astype(int), sign.astype(float)))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def frame(self) -> Frame:
        """The parity frame the solvers work in.

        A RateFamily point carries its family's, found once for every point;
        any other spec runs parity_frame on its own operators at each read,
        and holds nothing between solves.
        """
        if self._frame is not None:
            return self._frame
        return parity_frame(self.hamiltonian, self.collapse_ops, self.symmetry)


@dataclass(frozen=True)
class NamedState:
    """A unit vector with a fixed human-readable label."""

    label: str
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "vector", v)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state {self.label!r} has norm {norm!r}, expected 1")

    @property
    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


# -- full-space operator constructors ---------------------------------------


def cavity_annihilation(n_max: int) -> np.ndarray:
    """Photon annihilation operator on a Fock space truncated at n_max."""
    n = np.arange(1, n_max + 1)
    return np.diag(np.sqrt(n), k=1).astype(complex)


def _atom_op(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def atom_transition(i: int, j: int, atom: int, n_max: int) -> np.ndarray:
    """|i><j| on one atom (0 = A, 1 = B), identity on the rest of the space."""
    if atom not in (0, 1):
        raise ValueError(f"atom must be 0 or 1, got {atom}")
    eye_c = np.eye(n_max + 1, dtype=complex)
    op = _atom_op(i, j)
    if atom == 0:
        return tensor_product(tensor_product(op, np.eye(3)), eye_c)
    return tensor_product(tensor_product(np.eye(3), op), eye_c)


def cavity_mode(n_max: int) -> np.ndarray:
    """Annihilation operator embedded in the full two-atom space."""
    return tensor_product(np.eye(9), cavity_annihilation(n_max))


def cavity_vacuum_projector(n_max: int) -> np.ndarray:
    """Projector onto the zero-photon sector of the full space."""
    vac = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    vac[0, 0] = 1.0
    return tensor_product(np.eye(9), vac)


def full_basis_labels(n_max: int):
    return tuple(
        f"{a}{b},{n}" for a in range(3) for b in range(3) for n in range(n_max + 1)
    )


def full_hamiltonian_split(p: ModelParams):
    """Strong and weak Hamiltonian pieces of a full model.

    Returns (h_strong, h_weak) with h_strong the atom-cavity coupling,
    h_weak everything else; their sum is the model Hamiltonian.
    """
    if not p.variant.is_full:
        raise ValueError(f"variant {p.variant.value} has no full-space split")
    n_max = p.n_max
    a = cavity_mode(n_max)
    h_strong = np.zeros_like(a)
    for atom in (0, 1):
        coupling = p.g * blas_matmul(atom_transition(2, 1, atom, n_max), a)
        h_strong += coupling + coupling.conj().T

    number_cav = blas_matmul(np.ascontiguousarray(a.conj().T), a)
    h_weak = -p.delta * number_cav
    for atom in (0, 1):
        h_weak += p.delta * atom_transition(1, 1, atom, n_max)

    if p.variant is Variant.BELL_FULL:
        for atom in (0, 1):
            mw = p.omega_mw * atom_transition(1, 0, atom, n_max)
            h_weak += mw + mw.conj().T
        drive = p.omega * (
            atom_transition(2, 0, 0, n_max)
            + np.exp(1j * p.phi) * atom_transition(2, 0, 1, n_max)
        )
    else:
        # Opposite-sign microwave on the two atoms; optical drive on A only.
        mw = p.omega_mw * (
            atom_transition(1, 0, 0, n_max) - atom_transition(1, 0, 1, n_max)
        )
        h_weak += mw + mw.conj().T
        drive = p.omega * atom_transition(2, 0, 0, n_max)
    h_weak += drive + drive.conj().T
    return h_strong, h_weak


def _collapse_rates(p: ModelParams):
    """The factors of full_collapse_ops: sqrt(gamma/2) on each emission, sqrt(kappa) on a."""
    emission = math.sqrt(p.gamma / 2.0)
    return emission, emission, emission, emission, math.sqrt(p.kappa)


def full_collapse_ops(p: ModelParams):
    """Collapse operators of a full model, in the order _build_full documents."""
    n_max = p.n_max
    ops = (
        atom_transition(0, 2, 0, n_max),
        atom_transition(1, 2, 0, n_max),
        atom_transition(0, 2, 1, n_max),
        atom_transition(1, 2, 1, n_max),
        cavity_mode(n_max),
    )
    return tuple(rate * op for rate, op in zip(_collapse_rates(p), ops))


def _exchange_parity(n_max: int):
    """Atom swap times (-1)^N as a signed permutation of the full basis.

    N counts cavity photons plus atoms in level 2, so
    ``U|a b n> = (-1)^(n + [a=2] + [b=2]) |b a n>``.  The symmetric layout
    at phi = pi is invariant under it: the drive and every collapse
    operator change N by one and the swap turns Omega(sigma_A - sigma_B)
    into its negative (Buca & Prosen, NJP 14, 073007 (2012)).
    """
    a, b, n = np.meshgrid(range(3), range(3), range(n_max + 1), indexing="ij")
    perm = (b * 3 + a) * (n_max + 1) + n
    sign = (-1.0) ** (n + (a == 2) + (b == 2))
    return perm.ravel(), sign.ravel()


def _build_full(p: ModelParams) -> MasterEquationSpec:
    """Full atom-cavity model for either drive layout.

    Space: atom A (3) x atom B (3) x cavity (n_max+1).  Hamiltonian: detuning
    delta on level 1 and -delta on the cavity, and the atom-cavity coupling g
    on the 1 <-> 2 transition.  The symmetric layout (bell_full) drives both
    atoms with microwave mixing Omega_MW and the optical pump Omega at
    relative phase phi; the asymmetric one (klm_full) flips the microwave
    sign on atom B and pumps only atom A.  Collapse operators, in order: 2->0
    and 2->1 emission on atom A, the same on atom B (each at rate gamma/2),
    then cavity loss sqrt(kappa) a.  The symmetric layout carries the
    atom-exchange parity of _exchange_parity as its symmetry (exact at phi = pi).
    """
    h_strong, h_weak = full_hamiltonian_split(p)
    return MasterEquationSpec(
        hamiltonian=h_strong + h_weak,
        collapse_ops=full_collapse_ops(p),
        basis_labels=full_basis_labels(p.n_max),
        params=p,
        symmetry=_exchange_parity(p.n_max) if p.variant is Variant.BELL_FULL else None,
    )


class RateFamily:
    """One full model at every (gamma, kappa): built and framed once.

    Only the collapse operators depend on the two rates, each a fixed
    operator times sqrt(gamma/2) or sqrt(kappa).  The family builds the
    model once at unit factors and finds its parity frame once: the
    symmetry check, the basis and blocks, the rotated Hamiltonian and the
    blocks' index plan.  A point is a MasterEquationSpec with the family's
    Hamiltonian and frame and its own scaled collapse operators, entry for
    entry those of build_model at the same parameters.
    """

    def __init__(self, base: ModelParams):
        if not base.variant.is_full:
            raise ValueError(f"variant {base.variant.value} has no rate family")
        # At gamma = 2 and kappa = 1 every factor is exactly 1.
        self.unit = build_model(replace(base, gamma=2.0, kappa=1.0))
        self.frame = self.unit.frame
        # The frame's plan is built at its first read: here, once, so that
        # every point, and every worker sent the family, reuses it.
        self.frame.plan

    def at(self, params: ModelParams) -> MasterEquationSpec:
        """The model at params, which may differ from the family's in gamma and kappa only."""
        if replace(params, gamma=2.0, kappa=1.0) != self.unit.params:
            raise ValueError("a family point may change gamma and kappa only")
        ops = [rate * op for rate, op in zip(_collapse_rates(params), self.unit.collapse_ops)]
        point = replace(self.unit, collapse_ops=ops, params=params)
        object.__setattr__(point, "_frame", self.frame)
        return point


# -- reduced five-level models -----------------------------------------------


def _build_effective_bell(p: ModelParams) -> MasterEquationSpec:
    """Reduced singlet-preparation model on {|00>, |T>, |S>, |11>, |D>}.

    The microwave couples |00> and |11> to the triplet at rate sqrt(2)
    Omega_MW, the drive couples |T> to |D> at rate Omega, and |D> decays at
    total rate gamma split as gamma/2 to |11> and gamma/4 to each of |T>, |S>.
    """
    i00, iT, iS, i11, iD = range(5)
    h = np.zeros((5, 5), dtype=complex)
    h[i00, iT] = h[iT, i00] = SQ2 * p.omega_mw
    h[i11, iT] = h[iT, i11] = SQ2 * p.omega_mw
    h[iD, iT] = h[iT, iD] = p.omega
    h[iD, iD] = p.delta
    h[iT, iT] = p.delta
    h[iS, iS] = p.delta
    h[i11, i11] = 2.0 * p.delta

    def lower(target, rate):
        c = np.zeros((5, 5), dtype=complex)
        c[target, iD] = math.sqrt(rate)
        return c

    collapse = (
        lower(i11, p.gamma / 2.0),
        lower(iT, p.gamma / 4.0),
        lower(iS, p.gamma / 4.0),
    )
    return MasterEquationSpec(h, collapse, BELL_EFFECTIVE_LABELS, p)


def _build_effective_klm(p: ModelParams) -> MasterEquationSpec:
    """Reduced KLM-preparation model on {|00>, |01>, |10>, |11>, |D>}.

    The microwave couples (|00>-|11>) to (|10>-|01>) at rate Omega_MW, the
    drive couples |01> to |D> at rate Omega/sqrt(2), and |D> decays at total
    rate gamma split as gamma/2 to |11> and gamma/4 to each of |10>, |01>.
    """
    i00, i01, i10, i11, iD = range(5)
    h = np.zeros((5, 5), dtype=complex)
    for sign_state, sign in ((i00, 1.0), (i11, -1.0)):
        h[sign_state, i10] += sign * p.omega_mw
        h[sign_state, i01] += -sign * p.omega_mw
    h = h + h.conj().T
    h[iD, i01] = p.omega / SQ2
    h[i01, iD] = p.omega / SQ2
    h[iD, iD] = p.delta
    h[i01, i01] += p.delta
    h[i10, i10] += p.delta
    h[i11, i11] += 2.0 * p.delta

    def lower(target, rate):
        c = np.zeros((5, 5), dtype=complex)
        c[target, iD] = math.sqrt(rate)
        return c

    collapse = (
        lower(i11, p.gamma / 2.0),
        lower(i10, p.gamma / 4.0),
        lower(i01, p.gamma / 4.0),
    )
    return MasterEquationSpec(h, collapse, KLM_EFFECTIVE_LABELS, p)


_BUILDERS = {
    Variant.BELL_FULL: _build_full,
    Variant.BELL_EFFECTIVE: _build_effective_bell,
    Variant.KLM_FULL: _build_full,
    Variant.KLM_EFFECTIVE: _build_effective_klm,
}


def build_model(p: ModelParams) -> MasterEquationSpec:
    """The master equation of the model named by p.variant."""
    return _BUILDERS[p.variant](p)


# -- named states -------------------------------------------------------------

# Two-atom states in the {00, 01, 10, 11, D-slot} coordinates used below:
# S = (|01> - |10>)/sqrt(2), T = (|01> + |10>)/sqrt(2),
# D = (|21> - |12>)/sqrt(2), t2 = (|00> + |10> + |11>)/sqrt(3).


def _full_state_vector(label: str, p: ModelParams) -> np.ndarray:
    dim = 9 * (p.n_max + 1)
    nc = p.n_max + 1

    def ket(a, b):
        v = np.zeros(dim, dtype=complex)
        v[(a * 3 + b) * nc] = 1.0  # cavity vacuum
        return v

    table = {
        "g00": ket(0, 0),
        "g01": ket(0, 1),
        "g10": ket(1, 0),
        "g11": ket(1, 1),
        "S": (ket(0, 1) - ket(1, 0)) / SQ2,
        "T": (ket(0, 1) + ket(1, 0)) / SQ2,
        "D": (ket(2, 1) - ket(1, 2)) / SQ2,
        "t2": (ket(0, 0) + ket(1, 0) + ket(1, 1)) / SQ3,
    }
    return table[label]


_BELL_EFFECTIVE_STATES = {
    "g00": np.array([1, 0, 0, 0, 0]),
    "T": np.array([0, 1, 0, 0, 0]),
    "S": np.array([0, 0, 1, 0, 0]),
    "g11": np.array([0, 0, 0, 1, 0]),
    "D": np.array([0, 0, 0, 0, 1]),
    # |01> = (|T> + |S>)/sqrt(2), |10> = (|T> - |S>)/sqrt(2)
    "g01": np.array([0, 1, 1, 0, 0]) / SQ2,
    "g10": np.array([0, 1, -1, 0, 0]) / SQ2,
    "t2": np.array([1 / SQ3, 1 / (SQ3 * SQ2), -1 / (SQ3 * SQ2), 1 / SQ3, 0]),
}

_KLM_EFFECTIVE_STATES = {
    "g00": np.array([1, 0, 0, 0, 0]),
    "g01": np.array([0, 1, 0, 0, 0]),
    "g10": np.array([0, 0, 1, 0, 0]),
    "g11": np.array([0, 0, 0, 1, 0]),
    "D": np.array([0, 0, 0, 0, 1]),
    "S": np.array([0, 1, -1, 0, 0]) / SQ2,
    "T": np.array([0, 1, 1, 0, 0]) / SQ2,
    "t2": np.array([1, 0, 1, 1, 0]) / SQ3,
}


def named_state(label: str, p: ModelParams) -> NamedState:
    """A labeled state vector in the basis of p.variant.

    Full variants embed the two-atom state with the cavity in vacuum.
    Labels: S, T, D, t2, g00, g01, g10, g11 (gXY = both atoms in levels X, Y).
    """
    if label not in STATE_LABELS:
        raise ValueError(f"unknown state label {label!r}; expected one of {STATE_LABELS}")
    if p.variant.is_full:
        vec = _full_state_vector(label, p)
    elif p.variant is Variant.BELL_EFFECTIVE:
        vec = _BELL_EFFECTIVE_STATES[label].astype(complex)
    else:
        vec = _KLM_EFFECTIVE_STATES[label].astype(complex)
    return NamedState(label, vec)


def target_label(variant: Variant) -> str:
    """The stabilized state for the given drive layout: S or t2."""
    return "t2" if variant.is_klm else "S"
