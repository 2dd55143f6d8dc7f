"""Reference implementations the tests check pqec against.

Nothing under ``src/`` imports this module. It holds the paper's closed
forms (the Bloch rescaling r -> 2r/(1+|r|^2), the Werner family and its
fidelity map, dephasing of a tilted qubit, the sandwich fidelity bounds),
the brute-force outcome tree over fixed sign strings and its two-round
closed form, the whole tree enumerated one gadget call per merge, the
sampler's node-by-node tree walk, the shot records as 0.13.0 drew them
(``frozen_shot_records``: ``Generator.choice`` over every branch, one CDF
column at a time, no label table), the Pauli expansion computed densely,
the complex IXYZ basis change, the twirl's frame subsets as label tuples,
the threshold scan point by point on numpy scalars (``numpy_find_threshold``),
the ``--p`` print-resolution check with every value printed
(``p_prints_apart``), and the state constructors and validation the tests
build their inputs with. Each oracle is computed apart from the fast path it
checks: ``pauli_expand`` takes one trace per Pauli string, never
``to_pauli_basis``, and ``to_pauli_basis`` pairs qubit axes with the complex
Pauli matrices, not with the channel kernel's real {I, X, XZ, Z} pair; and
``enumerate_outcomes`` finds the reachable merges by calling the gadget on
every (left, right, sign), never through the sampler's ``reachable_merges``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from pqec import montecarlo
from pqec.channels import DEFAULT_SEED
from pqec.cli import _fmt_value
from pqec.purify import PROB_FLOOR, DegenerateOutcomeError, check_rounds, chunk_rows, \
    merge_spectra, swap_gadget, werner_fidelity_update
from pqec.states import MAX_PAULI_QUBITS, NORM_TOL, PAULI_I, PAULI_LABELS, PAULI_X, PAULI_Y, \
    PAULI_Z, ResourceLimitError, ValidationError, check_pure_state, density_from_pure, fidelity, \
    from_spectrum, num_qubits, pauli_matrix, purity, real_or_complex, spectral_decomposition
from pqec.threshold import ZERO_TOL, CrossingPair, CycleTrace, ThresholdEstimate, \
    check_threshold_grid

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-10


# ----------------------------------------------------------------------
# States: construction and validation
# ----------------------------------------------------------------------

def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    num_qubits(rho.shape[0])
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > HERM_TOL:
        raise ValidationError(f"Hermiticity violation {herm_dev} > {HERM_TOL}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < -EIG_TOL:
        raise ValidationError(f"negative eigenvalue {min_eig} below -{EIG_TOL}")
    return rho


def maximally_mixed(qubits: int) -> np.ndarray:
    d = 2 ** qubits
    return np.eye(d, dtype=complex) / d


def random_pure_state(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state on ``qubits`` qubits."""
    d = 2 ** qubits
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return vec / np.linalg.norm(vec)


def random_density_matrix(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix, Wishart-normalized."""
    d = 2 ** qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ----------------------------------------------------------------------
# Pauli expansion, one trace per string
# ----------------------------------------------------------------------

def pauli_weight(code: str) -> int:
    """Number of non-identity factors in a Pauli string."""
    return sum(1 for c in code if c != "I")


def pauli_expand(rho: np.ndarray) -> dict[str, float]:
    """Map from Pauli string (e.g. ``"XZ"``) to its real coefficient Re Tr(rho P).

    Each coefficient is one trace against the dense ``pauli_matrix``, over
    all 4**M strings, qubit 0 leftmost.
    """
    rho = np.asarray(rho, dtype=complex)
    m = num_qubits(rho.shape[0])
    if m > MAX_PAULI_QUBITS:
        raise ResourceLimitError(
            f"Pauli expansion limited to {MAX_PAULI_QUBITS} qubits "
            f"(4**{m} coefficients requested)")
    labels = ("".join(s) for s in itertools.product(PAULI_LABELS, repeat=m))
    return {label: float(np.trace(rho @ pauli_matrix(label)).real) for label in labels}


# Pair one qubit's row and column indices as k = 2i + j. Then T[a, k] =
# P_a[j, i] maps the pair to the coefficients Tr(rho P_a), and Tr(P_a P_b) =
# 2 delta_ab makes T^dagger / 2 its exact inverse. Stored transposed, for
# right-multiplication.
_PAIR_T = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]).transpose(0, 2, 1).reshape(4, 4)
_TO_PAULI, _FROM_PAULI = _PAIR_T.T.copy(), _PAIR_T.conj() / 2


def _each_qubit(t: np.ndarray, mat: np.ndarray, qubits: int) -> np.ndarray:
    # each pass contracts the leading axis and appends the result last, so
    # after ``qubits`` passes the axes are back in qubit order
    for _ in range(qubits):
        t = t.reshape(4, -1).T @ mat
    return t


def to_pauli_basis(rho: np.ndarray) -> np.ndarray:
    """Complex tensor Tr(rho P), shape (4,)*M, IXYZ axes; O(M 4**M), no qubit guard.

    A stack ``(..., d, d)`` gives ``(...,) + (4,)*M``, matrix by matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    m = num_qubits(rho.shape[-1])
    t = rho.reshape((-1,) + (2,) * (2 * m))
    # pair each qubit's row and column axes; the stack axis goes last, so
    # that the passes of ``_each_qubit`` bring it out first
    t = t.transpose([1 + a for q in range(m) for a in (q, m + q)] + [0])
    return _each_qubit(t, _TO_PAULI, m).reshape(rho.shape[:-2] + (4,) * m)


def from_pauli_basis(coeffs: np.ndarray, qubits: int | None = None) -> np.ndarray:
    """Inverse of ``to_pauli_basis``: 2**-M sum_P coeffs[P] P, with no qubit guard.

    The last ``qubits`` axes (all by default) are the Pauli axes; any axes
    before them are a stack, mapped matrix by matrix.
    """
    m = coeffs.ndim if qubits is None else qubits
    stack = coeffs.shape[:coeffs.ndim - m]
    t = coeffs.reshape((-1,) + (4,) * m).transpose(list(range(1, m + 1)) + [0])
    t = _each_qubit(t, _FROM_PAULI, m).reshape((-1,) + (2,) * (2 * m))
    rows_then_cols = [0] + list(range(1, 2 * m, 2)) + list(range(2, 2 * m + 1, 2))
    return t.transpose(rows_then_cols).reshape(stack + (2 ** m, 2 ** m))


def pauli_diagonal_oracle(rho: np.ndarray, lam: np.ndarray, qubits: int) -> np.ndarray:
    """Tr(rho P) in IXYZ order, scaled by lam[P], and back: the channel kernel's reference.

    ``lam``'s axes before its last ``qubits`` are a stack of channels lined
    up with the leading axes of ``rho``, as in ``apply_pauli_diagonal``.
    """
    coeffs = to_pauli_basis(rho)
    lead = lam.ndim - qubits
    lam = lam.reshape(lam.shape[:lead] + (1,) * (coeffs.ndim - qubits - lead) + lam.shape[lead:])
    return from_pauli_basis(coeffs * lam, qubits)


def pauli_weight_distribution(psi: np.ndarray):
    """Weight distribution a_k of a pure target and its mean weight.

    a_k = 2**-M sum_{w(P)=k} r_P^2 with sum_k a_k = 1; the second return
    value is sum_k k a_k, the average Pauli weight of the target.
    """
    psi = check_pure_state(psi)
    m = num_qubits(psi.size)
    coeffs = pauli_expand(density_from_pure(psi))
    a = np.zeros(m + 1)
    for label, r in coeffs.items():
        a[pauli_weight(label)] += r * r / 2 ** m
    mean_weight = float(np.sum(np.arange(m + 1) * a))
    return a, mean_weight


# ----------------------------------------------------------------------
# Twirl frame subsets, as label tuples
# ----------------------------------------------------------------------

# Averaged as U^dag E_z(U rho U^dag) U, frame I keeps the dephasing axis on Z,
# H rotates it onto X and HS onto Y. Per frame, 1 marks the IXYZ labels that
# its dephasing damps: all but I and that axis.
FRAME_LABELS = ("I", "H", "HS")
DAMPED = {"I": np.array([0, 1, 1, 0]), "H": np.array([0, 0, 1, 1]),
          "HS": np.array([0, 1, 0, 1])}


def generate_twirl_set(qubits: int, fraction: float,
                       seed: int = DEFAULT_SEED) -> tuple[tuple[str, ...], ...]:
    """The seeded subset of the 3**M frame-gate sequences, each a length-M label tuple.

    The subset is the first ceil(fraction * 3**M) entries of
    ``default_rng(seed).permutation(3**M)``, and entry n is the n-th
    sequence of ``itertools.product`` over the labels, qubit 0 leftmost, so
    that its base-3 digits, qubit 0 most significant, name its frames.
    ``fraction`` = 1 gives every sequence in that order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"twirl fraction {fraction} outside (0, 1]")
    sequences = list(itertools.product(FRAME_LABELS, repeat=qubits))
    if fraction == 1.0:
        return tuple(sequences)
    drawn = np.random.default_rng(seed).permutation(len(sequences))
    return tuple(sequences[n] for n in drawn[:math.ceil(fraction * len(sequences))])


# ----------------------------------------------------------------------
# Bloch sphere (single qubit)
# ----------------------------------------------------------------------

def bloch_decompose(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (r_x, r_y, r_z) of a single-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError("Bloch decomposition requires a single qubit")
    r = np.array([np.trace(rho @ PAULI_X), np.trace(rho @ PAULI_Y),
                  np.trace(rho @ PAULI_Z)])
    return np.real(r)


def bloch_compose(r: np.ndarray) -> np.ndarray:
    """Density matrix (I + r . sigma)/2 of a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValidationError("Bloch vector must have three components")
    norm = np.linalg.norm(r)
    if norm > 1.0 + NORM_TOL:
        raise ValidationError(f"Bloch vector length {norm} exceeds 1")
    return (PAULI_I + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2


def bloch_purify(r: np.ndarray) -> np.ndarray:
    """Radial rescaling r -> 2 r / (1 + |r|^2) of a single-qubit Bloch vector.

    Direction is preserved exactly; the radius strictly increases for
    0 < |r| < 1 with fixed points at 0 and 1.
    """
    r = np.asarray(r, dtype=float)
    norm_sq = float(r @ r)
    if norm_sq > 1.0 + 1e-12:
        raise ValidationError("Bloch vector length exceeds 1")
    return 2.0 * r / (1.0 + norm_sq)


# ----------------------------------------------------------------------
# Werner family
# ----------------------------------------------------------------------

def werner_state(mix: float, target: np.ndarray) -> np.ndarray:
    """(1 - mix)|psi><psi| + mix I/D for mixing parameter in [0, 1]."""
    if not 0.0 <= mix <= 1.0 + NORM_TOL:
        raise ValidationError(f"mixing parameter {mix} outside [0, 1]")
    psi = check_pure_state(target)
    d = psi.size
    return (1.0 - mix) * density_from_pure(psi) + mix * np.eye(d) / d


def werner_fidelity(mix: float, dim: int) -> float:
    """Fidelity 1 - mix (1 - 1/D) of a Werner state with its target."""
    return 1.0 - mix * (1.0 - 1.0 / dim)


def werner_mixing(fid: float, dim: int) -> float:
    """Inverse of ``werner_fidelity``."""
    return (1.0 - fid) * dim / (dim - 1.0)


def werner_mixing_update(mix: float, dim: int) -> float:
    """One purification round in Werner mixing-parameter coordinates."""
    denom = dim * (1.0 - mix) ** 2 - mix * (mix - 2.0)
    return mix * mix / denom


def werner_cycle_fidelities(dim: int, p: float, rounds: int, cycles: int) -> np.ndarray:
    """Scalar recursion for global-depolarizing cycles on the Werner family.

    Cross-check for the full-matrix engine: channel update of the mixing
    parameter, then ``rounds`` fidelity updates per cycle.
    """
    fids = np.empty(cycles + 1)
    fid = 1.0
    fids[0] = fid
    for t in range(1, cycles + 1):
        mix = (1.0 - fid) * dim / (dim - 1.0)
        mix = (1.0 - p) * mix + p
        fid = 1.0 - mix * (1.0 - 1.0 / dim)
        for _ in range(rounds):
            fid = werner_fidelity_update(fid, dim)
        fids[t] = fid
    return fids


def plus_cycle_fidelities(qubits: int, kind: str, p: float, rounds: int, cycles: int,
                          fraction: float = 1.0, seed: int = DEFAULT_SEED) -> np.ndarray:
    """F(0..T) of plus^M by a Walsh-basis recursion, written without engine code.

    Every channel is a mixture of Pauli strings, which map |+/->^M product
    states onto each other, so the state stays diagonal in that basis, with
    |+>^M first. The diagonal's Walsh transform mu_hat(u) = Tr(rho X^u) is
    multiplied by the channel's eigenvalue on X^u: the mean, over the
    twirl's frame sequences, of a product of per-qubit factors, each 1 - 2p
    where a frame other than H dephases an X, for a twirl. Purification
    raises the diagonal to the power 2**rounds. The transform is a dense
    2**M x 2**M sign matrix, as in perfbench's ``twirl_gamma``.
    """
    index = np.arange(2 ** qubits)
    bits = (index[:, None] >> np.arange(qubits - 1, -1, -1)) & 1      # (2^M, M), qubit 0 first
    signs = 1.0 - 2.0 * ((bits @ bits.T) % 2)                         # (-1)^{u . b}
    weight = bits.sum(axis=1)
    if kind == "global-depol":
        lam = np.where(weight == 0, 1.0, 1.0 - p)
    elif kind == "local-depol":
        lam = (1.0 - 4.0 * p / 3.0) ** weight
    elif kind == "dephasing":
        lam = (1.0 - 2.0 * p) ** weight
    else:
        frames = np.array(generate_twirl_set(qubits, fraction, seed))      # (T, M) labels
        keep = np.where(frames == "H", 1.0, 1.0 - 2.0 * p)
        lam = np.array([np.prod(np.where(u == 1, keep, 1.0), axis=1).mean() for u in bits])
    mu = np.zeros(2 ** qubits)
    mu[0] = 1.0
    fids = [1.0]
    for _ in range(cycles):
        mu = np.clip(signs @ (lam * (signs @ mu)) / 2 ** qubits, 0.0, None)
        mu = mu ** (2 ** rounds)
        mu = mu / mu.sum()
        fids.append(mu[0])
    return np.array(fids)


def logical_error_rate(trace: CycleTrace) -> float:
    """First-cycle fidelity drop F(0) - F(1)."""
    return float(trace.fidelities[0] - trace.fidelities[1])


def _numpy_pair_crossing(p_values: np.ndarray, widths: np.ndarray, diff: np.ndarray):
    for i in range(1, diff.size):
        if diff[i - 1] < -ZERO_TOL and diff[i] >= -ZERO_TOL:
            d0, d1 = diff[i - 1], diff[i]
            frac = -d0 / (d1 - d0)
            p = p_values[i - 1] + frac * (p_values[i] - p_values[i - 1])
            return float(min(max(p, p_values[i - 1]), p_values[i])), float(widths[i - 1])
    return None, None


def numpy_find_threshold(result) -> ThresholdEstimate:
    """``find_threshold`` as pqec 0.14.0 computed it, one grid point at a time.

    The same rules: the first negative-to-nonnegative sign change of each
    consecutive rounds pair's gamma difference, read against ``ZERO_TOL``
    and interpolated linearly; an interval within rtol 1e-9 of the first
    one is reported as the first one's width (``np.isclose``); the
    threshold is the ``np.median`` of the crossings.
    """
    check_threshold_grid(result.p_values, result.rounds)
    rounds_sorted = sorted(result.rounds)
    order = {r: i for i, r in enumerate(result.rounds)}
    widths = np.diff(result.p_values)
    widths = np.where(np.isclose(widths, widths[:1], rtol=1e-9, atol=0.0), widths[:1], widths)
    pairs = []
    for low, high in zip(rounds_sorted, rounds_sorted[1:]):
        diff = result.gamma[:, order[high]] - result.gamma[:, order[low]]
        p_cross, bracket = _numpy_pair_crossing(result.p_values, widths, diff)
        if p_cross is not None:
            direction = "crossed"
        else:
            direction = "always-below" if np.all(diff <= ZERO_TOL) else "always-above"
        pairs.append(CrossingPair(rounds_low=low, rounds_high=high, p_cross=p_cross,
                                  direction=direction, bracket=bracket))
    crossings = [pair.p_cross for pair in pairs if pair.p_cross is not None]
    brackets = [pair.bracket for pair in pairs if pair.bracket is not None]
    return ThresholdEstimate(p_threshold=float(np.median(crossings)) if crossings else None,
                             crossing_pairs=tuple(pairs),
                             grid_step=max(brackets, default=float(widths.max(initial=0.0))),
                             status="ok" if crossings else "no-crossing")


# ----------------------------------------------------------------------
# Closed forms of one purification round
# ----------------------------------------------------------------------

def fidelity_bounds(rho: np.ndarray, psi: np.ndarray):
    """Sandwich bounds (F^2/Tr rho^2, min(1, F/Tr rho^2)) on one-round output."""
    f = fidelity(rho, psi)
    p2 = purity(rho)
    if p2 <= 0.0:
        raise ValidationError("purity must be positive")
    return f * f / p2, min(1.0, f / p2)


def anisotropic_qubit_purify_fidelity(theta: float, p: float):
    """Dephase-then-purify fidelities of a tilted single-qubit target.

    The target points along (sin theta, 0, cos theta) up to an irrelevant
    azimuth. Dephasing with probability p contracts the transverse Bloch
    components by beta = 1 - 2p; one purification round rescales the radius
    but cannot rotate the (tilted) direction back. Returns the fidelity
    after the channel and after the subsequent purification round.
    """
    beta = 1.0 - 2.0 * p
    sin_sq = math.sin(theta) ** 2
    cos_sq = math.cos(theta) ** 2
    f_in = 0.5 * (1.0 + 1.0 - (1.0 - beta) * sin_sq)
    radius_sq = beta * beta * sin_sq + cos_sq
    f_out = 0.5 * (1.0 + 2.0 * (beta * sin_sq + cos_sq) / (1.0 + radius_sq))
    return f_in, f_out


# ----------------------------------------------------------------------
# Outcome tree: enumerated, over fixed sign strings, and walked
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeBranches:
    """Branches of the purification tree, stacked along a leading axis.

    ``state`` is (B, d, d), ``probability`` and ``parity`` are (B,), and
    row b of ``outcomes`` (B, 2**rounds - 1) is the sign string of branch b.
    One branch is the B = 1 case.
    """

    state: np.ndarray
    probability: np.ndarray
    parity: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)


def enumerate_outcomes(rho: np.ndarray, rounds: int) -> OutcomeBranches:
    """All reachable outcome branches of a ``rounds``-level tree, as dense matrices.

    Left and right subtrees share the same branch set, so each level merges
    every branch of the level below with every branch: left outermost, then
    right, then sign +1 before -1, one ``swap_gadget`` call each. A merge
    whose call raises ``DegenerateOutcomeError`` is left out. The strings
    so come in lexicographic order, + before -.
    """
    state = real_or_complex(rho)[None]
    probability, parity = np.ones(1), np.ones(1, dtype=int)
    outcomes = np.ones((1, 0), dtype=np.int8)
    for _ in range(rounds):
        n = len(state)
        merged = np.empty((2 * n * n,) + state.shape[1:], dtype=state.dtype)
        kept = []
        for a, b, sign in itertools.product(range(n), range(n), (1, -1)):
            try:
                merged[len(kept)], prob = swap_gadget(state[a], state[b], sign)
            except DegenerateOutcomeError:
                continue
            kept.append((a, b, sign, prob))
        a, b, sign, prob = (np.array(column) for column in zip(*kept))
        state = merged[:len(kept)]
        probability = probability[a] * probability[b] * prob
        parity = parity[a] * parity[b] * sign
        outcomes = np.concatenate([outcomes[a], outcomes[b], sign[:, None]], axis=1,
                                  dtype=np.int8)
    return OutcomeBranches(state=state, probability=probability, parity=parity,
                           outcomes=outcomes)


def parity_weighted_sum(rho: np.ndarray, rounds: int):
    """Brute-force sum_sigma P_sigma Omega_sigma rho_sigma and its trace.

    Equals the unnormalized matrix power rho**(2**rounds); the core oracle
    against the spectral shortcut.
    """
    branches = enumerate_outcomes(rho, rounds)
    total = np.tensordot(branches.probability * branches.parity, branches.state, axes=1)
    return total, float(np.real(np.trace(total)))


def _tree_rounds(n_outcomes: int) -> int:
    rounds = (n_outcomes + 1).bit_length() - 1
    if 2 ** rounds - 1 != n_outcomes or rounds < 1:
        raise ValidationError(
            f"outcome string length {n_outcomes} is not 2**rounds - 1")
    return rounds


def conditional_state(rho: np.ndarray, outcomes) -> OutcomeBranches:
    """Conditional states after full outcome strings.

    ``outcomes`` is one string of 2**rounds - 1 signs, ordered left
    subtree, right subtree, root, or a (B, 2**rounds - 1) stack of them;
    all leaves carry the same input state. The tree is walked post-order,
    so signs are read in string order, and every node is one stacked
    ``swap_gadget`` call over all strings. A branch's probability is the
    product of its per-node probabilities.
    """
    strings = np.atleast_2d(np.asarray(outcomes))
    if strings.ndim != 2 or not np.all((strings == 1) | (strings == -1)):
        raise ValidationError("outcomes must be +1 or -1")
    rounds = _tree_rounds(strings.shape[1])
    rho = np.asarray(rho, dtype=complex)
    leaf = np.broadcast_to(rho, (len(strings),) + rho.shape)
    columns = iter(strings.T.astype(int))

    def walk(level: int):
        if level == 0:
            return leaf, np.ones(len(strings))
        left, prob_l = walk(level - 1)
        right, prob_r = walk(level - 1)
        state, prob = swap_gadget(left, right, next(columns))
        return state, prob_l * prob_r * prob

    state, prob = walk(rounds)
    outcomes = strings.astype(np.int8)
    return OutcomeBranches(state=state, probability=prob, parity=np.prod(outcomes, axis=1),
                           outcomes=outcomes)


def _per_node_walk(vals: np.ndarray, rounds: int, shots: int, draw):
    """Root spectra (shots, d), probabilities and sign strings (shots, 2**rounds - 1) of a walk.

    The shots walk the tree together as (shots, d) eigenvalue vectors, and
    each node, in post-order, takes its signs from its own ``draw(overlap)``
    call and makes its own ``merge_spectra`` call. A branch's probability
    is the product of its per-node probabilities.
    """
    leaf = np.broadcast_to(vals, (shots, vals.size))
    signs = []

    def walk(level: int):
        if level == 0:
            return leaf, np.ones(shots)
        left, prob_l = walk(level - 1)
        right, prob_r = walk(level - 1)
        overlap = (left * right).sum(axis=-1)
        sign = draw(overlap)
        signs.append(sign)
        spectrum, prob = merge_spectra(left, right, sign, overlap)
        return spectrum, prob_l * prob_r * prob

    spectrum, prob = walk(rounds)
    return spectrum, prob, np.array(signs, dtype=np.int8).reshape(len(signs), shots).T


def _drawn_signs(rng: np.random.Generator, shots: int):
    """``_per_node_walk``'s ``draw``: its own ``rng.random(shots)``, +1 below (1 + overlap) / 2."""
    return lambda overlap: np.where(rng.random(shots) < 0.5 * (1.0 + overlap), 1, -1)


def per_node_outcome_tree(rho: np.ndarray, rounds: int, rng: np.random.Generator,
                          shots: int = 1) -> OutcomeBranches:
    """Draw ``shots`` outcome strings node by node, post-order, on eigenvalue vectors.

    The reference for the sampler's level-order walk and its label lookups:
    ``_per_node_walk`` in rho's eigenbasis.
    """
    vals, vecs = spectral_decomposition(rho)
    spectrum, prob, outcomes = _per_node_walk(vals, rounds, shots, _drawn_signs(rng, shots))
    return OutcomeBranches(state=from_spectrum(spectrum, vecs),
                           probability=prob, parity=np.prod(outcomes, axis=1),
                           outcomes=outcomes)


def _branch_spectra(vals: np.ndarray, rounds: int):
    """Spectra, probabilities and parities of every reachable branch, on eigenvalue vectors.

    Each level merges every branch of the level below with every branch,
    left outermost, then right, then sign +1 before -1, in one stacked
    ``merge_spectra`` call, leaving out merges below ``PROB_FLOOR``: the
    order of ``enumerate_outcomes``.
    """
    spectra, probability, parity = vals[None], np.ones(1), np.ones(1, dtype=int)
    for _ in range(rounds):
        n = len(spectra)
        left = np.repeat(np.arange(n), 2 * n)
        right = np.tile(np.repeat(np.arange(n), 2), n)
        sign = np.tile([1, -1], n * n)
        overlap = (spectra[left] * spectra[right]).sum(axis=-1)
        prob = 0.5 * (1.0 + sign * overlap)
        keep = prob >= PROB_FLOOR
        left, right, sign = left[keep], right[keep], sign[keep]
        spectra = merge_spectra(spectra[left], spectra[right], sign, overlap[keep])[0]
        probability = probability[left] * probability[right] * prob[keep]
        parity = parity[left] * parity[right] * sign
    return spectra, probability, parity


def _measure_by_columns(records, rows, parity, spectra, weights, obs_vals, rng):
    """One ``rng.random`` call, then per record its parity and the observable its uniform picks.

    Record k reads row ``rows[k]`` of ``parity`` and of the CDFs of
    ``spectra @ weights``, built as ``Generator.choice(p=...)`` builds its
    CDF; its index counts the first d - 1 CDF columns at or below its
    uniform, one column at a time over all records.
    """
    u = rng.random(len(records))
    q = spectra @ weights
    cdf = np.cumsum(q / q.sum(axis=1, keepdims=True), axis=1)
    cdf = cdf / cdf[:, -1:]
    index = np.zeros(len(records), dtype=np.intp)
    for column in cdf[:, :-1].T:
        index += column[rows] <= u
    records[:, 0] = parity[rows]
    records[:, 1] = obs_vals[index]


def frozen_shot_records(rho: np.ndarray, obs: np.ndarray, rounds: int, n_shots: int,
                        rng: np.random.Generator):
    """The (n_shots, 2) records ``simulate_shots`` drew in 0.13.0, and each shot's branch.

    Up to four rounds: one ``rng.choice`` over every branch of
    ``_branch_spectra``, the drawn branches found by ``bincount``, then one
    uniform per shot measured on its drawn branch's spectrum. Beyond, per
    block of ``chunk_rows(16 d**2)`` shots: a node-by-node walk, then the
    block's uniforms. The branch is None beyond four rounds.
    """
    obs_vals, obs_vecs = np.linalg.eigh(obs)
    vals, vecs = spectral_decomposition(rho)
    weights = np.abs(vecs.conj().T @ obs_vecs) ** 2
    records = np.empty((n_shots, 2))
    if rounds <= montecarlo.MAX_TREE_ROUNDS:
        spectra, probability, parity = _branch_spectra(vals, rounds)
        which = rng.choice(len(probability), size=n_shots, p=probability / probability.sum())
        counts = np.bincount(which)
        drawn = np.flatnonzero(counts)
        _measure_by_columns(records, (np.cumsum(counts > 0) - 1)[which], parity[drawn],
                            spectra[drawn], weights, obs_vals, rng)
        return records, which
    step = chunk_rows(16 * obs_vals.size ** 2)
    for lo in range(0, n_shots, step):
        block = records[lo:lo + step]
        spectrum, _, outcomes = _per_node_walk(vals, rounds, len(block),
                                               _drawn_signs(rng, len(block)))
        _measure_by_columns(block, np.arange(len(block)), np.prod(outcomes, axis=1), spectrum,
                            weights, obs_vals, rng)
    return records, None


def sample_outcome_tree(rho: np.ndarray, rounds: int, rng: np.random.Generator,
                        shots: int = 1) -> OutcomeBranches:
    """The branches ``shots`` walks of the sampler draw, with their dense states.

    The sampler's own walk beyond four rounds (``montecarlo._walk_shots``)
    at any rounds: after one ``spectral_decomposition`` the shots walk the
    tree together as eigenvalue vectors, each node drawing every shot's
    sign with its conditional probability. The root spectra are built into
    states (``from_spectrum``) so that they compare with the dense oracles.
    The walk carries no probabilities, so each drawn string's probability
    is its replay on rho's eigenvalues (``_per_node_walk``), node by node.
    """
    check_rounds(rounds)
    vals, vecs = spectral_decomposition(rho)
    spectrum, signs = montecarlo._walk_shots(montecarlo.label_levels(vals), rounds, rng, shots)
    columns = iter(signs)
    _, prob, _ = _per_node_walk(vals, rounds, shots, lambda overlap: next(columns))
    outcomes = signs.T
    return OutcomeBranches(state=from_spectrum(spectrum, vecs),
                           probability=prob, parity=np.prod(outcomes, axis=1),
                           outcomes=outcomes)


def plain_sum_check(rho: np.ndarray, rounds: int) -> float:
    """Max entrywise deviation of sum_sigma P_sigma rho_sigma from the input."""
    rho = np.asarray(rho, dtype=complex)
    branches = enumerate_outcomes(rho, rounds)
    total = np.tensordot(branches.probability, branches.state, axes=1)
    return float(np.max(np.abs(total - rho)))


def conditional_state_two_rounds(rho: np.ndarray, outcomes) -> OutcomeBranches:
    """Two-round conditional state from its closed form, no recursion.

    Expresses the (s1, s2, s3) branch directly through the matrix powers
    rho..rho**4 and the power traces, with the root probability conditioned
    on the two first-round outcomes. Used as an independent check of the
    recursive evaluator.
    """
    s1, s2, s3 = (int(s) for s in outcomes)
    rho = np.asarray(rho, dtype=complex)
    rho2 = rho @ rho
    rho3 = rho2 @ rho
    rho4 = rho3 @ rho
    t2 = float(np.real(np.trace(rho2)))
    t3 = float(np.real(np.trace(rho3)))
    t4 = float(np.real(np.trace(rho4)))
    p1 = 0.5 * (1.0 + s1 * t2)
    p2 = 0.5 * (1.0 + s2 * t2)
    if min(p1, p2) < PROB_FLOOR:
        raise DegenerateOutcomeError("unreachable first-round branch")
    overlap_12 = (t2 + (s1 + s2) * t3 + s1 * s2 * t4) / (4.0 * p1 * p2)
    p3 = 0.5 * (1.0 + s3 * overlap_12)
    if p3 < PROB_FLOOR:
        raise DegenerateOutcomeError("unreachable root branch")
    state = (
        (1.0 / (p1 * p3) + 1.0 / (p2 * p3)) * rho
        + (s1 / (p1 * p3) + s2 / (p2 * p3) + s3 / (p1 * p2 * p3)) * rho2
        + ((s1 * s3 + s2 * s3) / (p1 * p2 * p3)) * rho3
        + (s1 * s2 * s3 / (p1 * p2 * p3)) * rho4
    ) / 8.0
    return OutcomeBranches(state=state[None], probability=np.array([p1 * p2 * p3]),
                           parity=np.array([s1 * s2 * s3]),
                           outcomes=np.array([[s1, s2, s3]], dtype=np.int8))


def p_prints_apart(values) -> bool:
    """Whether every p prints as itself at the CSV's resolution, one ``_fmt_value`` per value.

    No nonzero value prints as 0.0 and no two distinct values print alike:
    the dict of printed values is as long as the set of values, and its
    entry for "0.0", if any, is zero.
    """
    printed = {_fmt_value(float(p)): p for p in values}
    return not (len(printed) < len(set(values)) or printed.get("0.0", 0.0))
