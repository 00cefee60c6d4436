"""Shared test oracles, independent of the library code paths they check.

Besides scenario builders and the hand-written Bloch vector of every protocol
label (the oracle for `records.state_of_label`), this holds the hand-derived
solutions that the library replaced by one least-squares fit: the
Hilbert-Schmidt dual frame of linear tomography, and the eight linear sum
rules and three bi-linear consistency equations of the 12-state
verification protocol.  It also keeps the per-element paths that bulk
operations replaced: the value-by-value JSON layout (floats by shortest
repr), the entry-by-entry matrix encoder and decoder, the einsum contraction
of the process tensor, the matrix-unit loop of the fixed-environment map and
the einsum partial trace over the environment of a fully formed U J U'.
The preparation routes that `prep.prepare_generalized` replaced are oracles
for it: the pin of gamma0 and the stochastic rotation of the pinned state,
projection with the P (x) tau cross-check, the completed measurement
{X, sqrt(1 - X^2)} of the mixed record, and a dense (C x 1) evaluation of any
outcome map.
Then come the field-by-field bi-linear element table and its prediction loop,
which the stacked table and its probe contraction replaced, and the matrix
element <A|M|B> they are built from.  Last is the dilation of a generalized
measurement: a unitary on system x ancillas followed by a von Neumann readout
of an ancilla, another independent route to `prep.prepare_generalized`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from procmap.bilinear_tomo import CROSS_PAIRS, MixedWithoutUnitUnit, ZeroGamma
from procmap.dynamics import ProcessSpec, correlated_pair_state, heisenberg_hamiltonian, unitary_from_hamiltonian
from procmap.linear_tomo import NotAFrame
from procmap.prep import (
    ZERO_PROBABILITY_TOL,
    GeneralizedMeasurement,
    InvalidMeasurement,
    OutcomeMap,
    PreparedState,
    ZeroProbabilityOutcome,
)
from procmap.qstate import (
    IDENTITY_2,
    PAULIS,
    conjugate_system,
    dagger,
    is_projector,
    tensor,
    validate_unitary,
)
from procmap.records import TWELVE_STATE_LABELS, TomographyRecord, select, state_of_label

SQRT2 = float(np.sqrt(2.0))

# The Bloch vector of every protocol label, written out by hand.
BLOCH_BY_LABEL = {
    "1+": (1.0, 0.0, 0.0),
    "1-": (-1.0, 0.0, 0.0),
    "2+": (0.0, 1.0, 0.0),
    "2-": (0.0, -1.0, 0.0),
    "3+": (0.0, 0.0, 1.0),
    "3-": (0.0, 0.0, -1.0),
    "4+": (1.0 / SQRT2, 1.0 / SQRT2, 0.0),
    "4-": (-1.0 / SQRT2, -1.0 / SQRT2, 0.0),
    "5+": (1.0 / SQRT2, 0.0, 1.0 / SQRT2),
    "5-": (-1.0 / SQRT2, 0.0, -1.0 / SQRT2),
    "6+": (0.0, 1.0 / SQRT2, 1.0 / SQRT2),
    "6-": (0.0, -1.0 / SQRT2, -1.0 / SQRT2),
}

T_DEMO = math.pi / 8.0
A2_DEMO = 0.5
C23_DEMO = 0.3


def rand_unitary(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def rand_unit_bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def partial_trace_env(joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Trace out the environment of a (dim_sys*dim_env)-dimensional joint operator.

    Composite index convention: (i, alpha) -> i * dim_env + alpha.
    """
    joint = np.asarray(joint, dtype=complex)
    d = dim_sys * dim_env
    if joint.shape != (d, d):
        raise ValueError(f"joint has shape {joint.shape}, expected ({d}, {d})")
    blocks = joint.reshape(dim_sys, dim_env, dim_sys, dim_env)
    return np.einsum("iaja->ij", blocks)


def brute_force_env_trace(joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Partial trace over the environment by explicit index loops."""
    out = np.zeros((dim_sys, dim_sys), dtype=complex)
    for r in range(dim_sys):
        for s in range(dim_sys):
            for a in range(dim_env):
                out[r, s] += joint[r * dim_env + a, s * dim_env + a]
    return out


def brute_force_output(u: np.ndarray, joint: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Direct evaluation of the process pipeline: conjugate then env-trace."""
    return brute_force_env_trace(u @ joint @ u.conj().T, dim_sys, dim_env)


def closed_form_lambda_s(t: float) -> np.ndarray:
    """Stochastic-preparation process map for the exchange coupling at time t."""
    c2 = math.cos(2.0 * t) ** 2
    return 0.5 * np.array(
        [
            [1 + c2, 0, 0, 2 * c2],
            [0, 1 - c2, 0, 0],
            [0, 0, 1 - c2, 0],
            [2 * c2, 0, 0, 1 + c2],
        ],
        dtype=complex,
    )


def closed_form_lambda_m(t: float, a2: float, c23: float) -> np.ndarray:
    """Measurement-preparation linear fit for the correlated pair state."""
    c = math.cos(2.0 * t)
    s = math.sin(2.0 * t)
    cp = c23 / (1.0 + a2)
    return 0.5 * np.array(
        [
            [1 + c * c, 1j * cp * s * s, 0, 2 * c * c - 1j * cp * c * s],
            [-1j * cp * s * s, 1 - c * c, 1j * cp * c * s, 0],
            [0, -1j * cp * c * s, 1 - c * c, -1j * cp * s * s],
            [2 * c * c + 1j * cp * c * s, 0, 1j * cp * s * s, 1 + c * c],
        ],
        dtype=complex,
    )


def va_spec(t: float = T_DEMO, a2: float = A2_DEMO, c23: float = C23_DEMO) -> ProcessSpec:
    """The measurement-preparation example process: exchange coupling on a correlated pair."""
    gamma0 = correlated_pair_state([0.0, a2, 0.0], c23)
    u = unitary_from_hamiltonian(heisenberg_hamiltonian(), t)
    return ProcessSpec(u=u, gamma0=gamma0)


def pin(gamma0: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pin the qubit system to the pure state `target`: target (x) tau, tau the environment marginal of gamma0."""
    nb = len(gamma0) // 2
    return tensor(target, np.einsum("iaib->ab", np.asarray(gamma0).reshape(2, nb, 2, nb)))


def prepare_stochastic(joint_pinned: np.ndarray, v: np.ndarray) -> PreparedState:
    """Rotate a pinned joint state by a system unitary; outcome probability is 1."""
    validate_unitary(v)
    dim_sys = v.shape[0]
    d = np.asarray(joint_pinned).shape[0]
    if d % dim_sys:
        raise ValueError("joint dimension is not a multiple of the system dimension")
    return PreparedState(joint=conjugate_system(v, joint_pinned), gamma=1.0)


def prepare_projective(gamma0: np.ndarray, dim_sys: int, dim_env: int, p: np.ndarray, label: str = "") -> PreparedState:
    """Prepare by a von Neumann measurement outcome: project and renormalize.

    gamma = Tr[(P x 1) gamma0], the probability of obtaining this input state.
    Raises ZeroProbabilityOutcome when the experiment never yields this input.
    """
    gamma0 = np.asarray(gamma0, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if not is_projector(p):
        raise ValueError("projective preparation requires a rank-1 projector")
    projected = conjugate_system(p, gamma0)
    gamma = float(np.trace(projected).real)
    if gamma < ZERO_PROBABILITY_TOL:
        raise ZeroProbabilityOutcome(f"preparation {label or 'outcome'} has probability {gamma:.3e}")
    joint = projected / gamma
    # The projected joint factorizes as P (x) tau; cross-check both forms.
    tau = np.einsum("iaib->ab", joint.reshape(dim_sys, dim_env, dim_sys, dim_env))
    if np.max(np.abs(joint - tensor(p, tau))) > 1e-12:
        raise ValueError("projected joint state does not factorize as P (x) tau")
    return PreparedState(joint=joint, gamma=gamma)


def mixed_preparation_measurement(x: np.ndarray) -> GeneralizedMeasurement:
    """Two-outcome measurement {X, sqrt(1 - X^2)} whose outcome 0 prepares the mixed operator X.

    Outcome 0 produces (X x 1) gamma0 (X x 1) / gamma, the bi-linear process
    equation evaluated at X; the second Kraus operator only completes the set.
    """
    x = np.asarray(x, dtype=complex)
    w, v = np.linalg.eigh(x)
    if w[0] < 0 or w[-1] > 1:
        raise ValueError("mixed preparation target must satisfy 0 <= X <= 1")
    rest = (v * np.sqrt(np.clip(1.0 - w**2, 0.0, None))) @ v.conj().T
    return GeneralizedMeasurement(
        outcomes=(OutcomeMap(weights=(1.0,), kraus=(x,)), OutcomeMap(weights=(1.0,), kraus=(rest,)))
    )


def prepare_dense(base: np.ndarray, dim_env: int, operation: OutcomeMap) -> PreparedState:
    """sum_a w_a (C_a x 1) base (C_a x 1)' / gamma with every C_a x 1 formed densely."""
    acc = 0
    for w, c in zip(operation.weights, operation.kraus):
        big = tensor(c, np.eye(dim_env))
        acc = acc + w * (big @ base @ dagger(big))
    gamma = float(np.trace(acc).real)
    return PreparedState(joint=acc / gamma, gamma=gamma)


def measured_records(spec: ProcessSpec, labels) -> list[TomographyRecord]:
    """Projective-preparation records for the given protocol labels."""
    out = []
    for label in labels:
        p = state_of_label(label)
        prepared = prepare_projective(spec.gamma0, 2, spec.dim_env, p, label=label)
        q = brute_force_output(spec.u, prepared.joint, 2, spec.dim_env)
        out.append(TomographyRecord(label=label, input=p, output=q, gamma=prepared.gamma))
    return out


def stochastic_records(spec: ProcessSpec, labels) -> list[TomographyRecord]:
    """Pin-then-rotate records; the pinned environment is the gamma0 marginal."""
    from procmap.prep import rotation_between
    from procmap.qstate import ket_from_projector

    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    pinned = pin(spec.gamma0, zero)
    out = []
    for label in labels:
        p = state_of_label(label)
        v = rotation_between(ket_from_projector(zero), ket_from_projector(p))
        prepared = prepare_stochastic(pinned, v)
        q = brute_force_output(spec.u, prepared.joint, 2, spec.dim_env)
        out.append(TomographyRecord(label=label, input=p, output=q, gamma=prepared.gamma))
    return out


@dataclass(frozen=True)
class DualFrame:
    """Tomography inputs together with their Hilbert-Schmidt duals."""

    inputs: tuple[np.ndarray, ...]
    duals: tuple[np.ndarray, ...]

    def biorthogonality_residual(self) -> float:
        k = len(self.inputs)
        res = 0.0
        for m in range(k):
            for n in range(k):
                val = np.trace(dagger(self.duals[m]) @ self.inputs[n])
                res = max(res, abs(val - (1.0 if m == n else 0.0)))
        return float(res)


def compute_duals(inputs) -> DualFrame:
    """Duals of the input states under the Hilbert-Schmidt scalar product.

    Inverts the Gram matrix G[m,n] = Tr[P(m)' P(n)]; requires exactly N^2
    linearly independent inputs.
    """
    inputs = tuple(np.asarray(p, dtype=complex) for p in inputs)
    if not inputs:
        raise NotAFrame("no input states supplied")
    n = inputs[0].shape[0]
    if any(p.shape != (n, n) for p in inputs):
        raise NotAFrame("input states have inconsistent dimensions")
    k = len(inputs)
    if k != n * n:
        raise NotAFrame(f"need exactly {n * n} input states for dimension {n}, got {k}")
    gram = np.empty((k, k), dtype=complex)
    for m in range(k):
        for j in range(k):
            gram[m, j] = np.trace(dagger(inputs[m]) @ inputs[j])
    if np.linalg.cond(gram) > 1e12:
        raise NotAFrame("input states are not linearly independent (singular Gram matrix)")
    ginv = np.linalg.inv(gram)
    duals = tuple(
        sum(ginv[j, m] * inputs[j] for j in range(k))
        for m in range(k)
    )
    frame = DualFrame(inputs=inputs, duals=duals)
    res = frame.biorthogonality_residual()
    if res > 1e-10:
        raise NotAFrame(f"computed duals violate biorthogonality (residual {res:.3e})")
    return frame


def _require(records) -> dict[str, TomographyRecord]:
    return dict(zip(TWELVE_STATE_LABELS, select(records, TWELVE_STATE_LABELS)))


def linear_sum_rule_residuals(records) -> dict[str, float]:
    """Max-abs entry of (LHS - RHS) for each of the eight output sum rules."""
    recs = _require(records)
    q = {label: np.asarray(recs[label].output, dtype=complex) for label in TWELVE_STATE_LABELS}
    base = q["1+"] + q["1-"]
    combos = {
        "Q2-": (q["2-"], base - q["2+"]),
        "Q3-": (q["3-"], base - q["3+"]),
        "Q4+": (q["4+"], 0.5 * base + (q["2+"] - q["1-"]) / SQRT2),
        "Q4-": (q["4-"], 0.5 * base - (q["2+"] - q["1-"]) / SQRT2),
        "Q5+": (q["5+"], 0.5 * base + (q["3+"] - q["1-"]) / SQRT2),
        "Q5-": (q["5-"], 0.5 * base - (q["3+"] - q["1-"]) / SQRT2),
        "Q6+": (q["6+"], 0.5 * base + (q["2+"] + q["3+"] - base) / SQRT2),
        "Q6-": (q["6-"], 0.5 * base - (q["2+"] + q["3+"] - base) / SQRT2),
    }
    return {name: float(np.max(np.abs(lhs - rhs))) for name, (lhs, rhs) in combos.items()}


def bilinear_consistency_residuals(records) -> dict[str, float]:
    """Max-abs entry of (LHS - RHS) for the three bi-linear consistency equations.

    Each equation predicts the probability-weighted output of an opposite
    diagonal projector from the nine protocol records.
    """
    recs = _require(records)
    gq = {
        label: recs[label].gamma * np.asarray(recs[label].output, dtype=complex)
        for label in TWELVE_STATE_LABELS
    }
    residuals = {}
    for name, (j, k), minus_label, plus_label in (
        ("GQ4-", (1, 2), "4-", "4+"),
        ("GQ5-", (1, 3), "5-", "5+"),
        ("GQ6-", (2, 3), "6-", "6+"),
    ):
        rhs = (
            gq[f"{j}-"] - gq[f"{j}+"] + gq[f"{k}-"] - gq[f"{k}+"]
        ) / SQRT2 + gq[plus_label]
        residuals[name] = float(np.max(np.abs(gq[minus_label] - rhs)))
    return residuals


_NAMED_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _ascii_string(text: str) -> str:
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _NAMED_ESCAPES:
            out.append(_NAMED_ESCAPES[ch])
        elif 0x20 <= code <= 0x7E:
            out.append(ch)
        elif code > 0xFFFF:  # a UTF-16 surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
        else:
            out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def _per_element(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _ascii_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + _per_element(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items = [pad + _ascii_string(k) + ": " + _per_element(v, indent, level + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def per_element_dumps(obj, indent: int = 2) -> str:
    """The layout `jsonio.dumps` writes, built value by value: floats by repr, strings ASCII-escaped."""
    return _per_element(obj, indent, 0) + "\n"


def reference_matrix_to_json(mat: np.ndarray) -> dict:
    """Entry-by-entry encode of a complex matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    arr = np.asarray(mat, dtype=complex)
    rows, cols = arr.shape
    return {"rows": rows, "cols": cols, "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]}


def reference_matrix_from_json(obj: dict) -> np.ndarray:
    """Entry-by-entry decode of the {"rows", "cols", "data"} matrix encoding."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        re, im = pair
        flat[i] = complex(float(re), float(im))
    if not np.isfinite(flat).all():
        raise ValueError("matrix JSON contains non-finite values")
    return flat.reshape(rows, cols)


def reference_raw_M(spec: ProcessSpec) -> np.ndarray:
    """Unsymmetrized process tensor m[r,s,x,p,y,q] by one three-operand einsum."""
    na, nb = 2, spec.dim_env
    u4 = np.asarray(spec.u, dtype=complex).reshape(na, nb, na, nb)
    g4 = np.asarray(spec.gamma0, dtype=complex).reshape(na, nb, na, nb)
    return np.einsum("repa,xayb,seqb->rsxpyq", u4, g4, np.conj(u4))


def reference_dynamical_map(u: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Fixed-environment map matrix by feeding each matrix unit through the dynamics."""
    u = np.asarray(u, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    dim_env = tau.shape[0]
    dim_sys = u.shape[0] // dim_env
    lam4 = np.zeros((dim_sys, dim_sys, dim_sys, dim_sys), dtype=complex)
    for rp in range(dim_sys):
        for sp in range(dim_sys):
            unit = np.zeros((dim_sys, dim_sys), dtype=complex)
            unit[rp, sp] = 1.0
            evolved = u @ tensor(unit, tau) @ dagger(u)
            out = partial_trace_env(evolved, dim_sys, dim_env)
            lam4[:, rp, :, sp] = out
    return lam4.reshape(dim_sys * dim_sys, dim_sys * dim_sys)


@dataclass(frozen=True)
class HandElementTable:
    """The bi-linear element table as one field per combination.

    diag_plus[j]  = <1|M|1> + <sigma_j|M|sigma_j>
    linear[j]     = <1|M|sigma_j> + <sigma_j|M|1>
    cross[(j,k)]  = <sigma_j|M|sigma_k> + <sigma_k|M|sigma_j>
    unit_unit     = <1|M|1>
    """

    diag_plus: tuple[np.ndarray, np.ndarray, np.ndarray]
    linear: tuple[np.ndarray, np.ndarray, np.ndarray]
    cross: dict[tuple[int, int], np.ndarray]
    unit_unit: np.ndarray | None = None

    def stacked(self) -> np.ndarray:
        """The fields in the order of `MElementTable.elements`."""
        mats = list(self.diag_plus) + list(self.linear) + [self.cross[jk] for jk in CROSS_PAIRS]
        if self.unit_unit is not None:
            mats.append(self.unit_unit)
        return np.array(mats)


def basis_element(bmap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix element <A|M|B>[r,s] = sum conj(A[r'',r']) m[r,s,r'',r',s'',s'] B[s'',s'].

    <P|M|P> is the unnormalized output gamma*Q of the preparation P.
    """
    return np.einsum("xp,rsxpyq,yq->rs", np.conj(np.asarray(a, dtype=complex)), bmap.m, np.asarray(b, dtype=complex))


def reference_element_table(bmap) -> HandElementTable:
    """Element table by direct contraction of M with the {1, sigma_j} basis."""
    unit = basis_element(bmap, IDENTITY_2, IDENTITY_2)
    diag_plus = tuple(unit + basis_element(bmap, s, s) for s in PAULIS)
    linear = tuple(
        basis_element(bmap, IDENTITY_2, s) + basis_element(bmap, s, IDENTITY_2) for s in PAULIS
    )
    cross = {}
    for j, k in CROSS_PAIRS:
        sj, sk = PAULIS[j - 1], PAULIS[k - 1]
        cross[(j, k)] = basis_element(bmap, sj, sk) + basis_element(bmap, sk, sj)
    return HandElementTable(diag_plus=diag_plus, linear=linear, cross=cross, unit_unit=unit)


def reference_predict_output(table: HandElementTable, p) -> tuple[float, np.ndarray]:
    """Outcome probability and output state for Bloch vector p, term by term."""
    p = np.asarray(p, dtype=float)
    norm_sq = float(np.dot(p, p))
    pure = abs(norm_sq - 1.0) <= 1e-10
    if not pure and table.unit_unit is None:
        raise MixedWithoutUnitUnit(
            f"Bloch norm {np.sqrt(norm_sq):.6f} < 1 but the table has no <1|M|1> element"
        )
    four_gq = np.zeros((2, 2), dtype=complex)
    if not pure:
        four_gq += (1.0 - norm_sq) * table.unit_unit
    for j in range(3):
        four_gq += p[j] ** 2 * table.diag_plus[j] + p[j] * table.linear[j]
    for j, k in CROSS_PAIRS:
        four_gq += p[j - 1] * p[k - 1] * table.cross[(j, k)]
    gamma = float(np.trace(four_gq).real) / 4.0
    if gamma <= 1e-12:
        raise ZeroGamma(f"predicted outcome probability {gamma:.3e} is not positive")
    q = four_gq / (4.0 * gamma)
    return gamma, 0.5 * (q + np.conj(q).T)


def _dilation_dims(meas) -> tuple[int, int, int]:
    n = meas.outcomes[0].kraus[0].shape[0]
    mu = meas.num_outcomes
    return n, mu, n * n


def build_dilation(meas) -> tuple[np.ndarray, tuple[int, int]]:
    """Dilation unitary realizing `meas` with two ancillas of sizes (mu, N^2).

    Basis ordering |r, j, alpha> with composite index r*(mu*N^2) + j*N^2 + alpha.
    Columns for |r', 0, 0> are fixed by the measurement; the remaining columns,
    in index order, complete the unitary from a QR factorization of
    [fixed columns | identity].
    """
    meas.validate()
    n, mu, n2 = _dilation_dims(meas)
    dim = n * mu * n2

    blocks = np.zeros((n, mu, n2, n), dtype=complex)  # [r, j, alpha, r']
    for j, omap in enumerate(meas.outcomes):
        if len(omap.kraus) > n2:
            raise InvalidMeasurement("an outcome map has more than N^2 Kraus terms")
        for alpha, (w, c) in enumerate(zip(omap.weights, omap.kraus)):
            blocks[:, j, alpha, :] = np.sqrt(w) * c
    fixed = blocks.reshape(dim, n)

    q, r = np.linalg.qr(np.hstack([fixed, np.eye(dim)]))
    # The fixed columns are orthonormal, so r[:n, :n] is diagonal with unit
    # moduli; undoing those phases makes q[:, :n] reproduce them.
    phases = np.diag(r)[:n]
    q[:, :n] *= phases / np.abs(phases)
    fixed_positions = np.arange(n) * (mu * n2)
    w_mat = np.empty((dim, dim), dtype=complex)
    w_mat[:, fixed_positions] = q[:, :n]
    w_mat[:, np.setdiff1d(np.arange(dim), fixed_positions)] = q[:, n:]
    validate_unitary(w_mat, tol=1e-12)
    return w_mat, (mu, n2)


def measure_generalized_via_dilation(joint: np.ndarray, dim_env: int, meas, outcome: int) -> tuple[float, np.ndarray]:
    """Outcome probability and collapsed joint state via the dilation + von Neumann route.

    The system factor of the (system x environment) joint state meets two
    ancillas in |0, 0>; the dilation unitary acts on system x ancillas, the
    first ancilla is read out and both are traced out.  The full space is
    ordered (system, ancillas, environment), so the unitary is W (x) 1.
    """
    n, mu, n2 = _dilation_dims(meas)
    w_mat, _ = build_dilation(meas)
    ancilla = np.zeros((mu * n2, mu * n2), dtype=complex)
    ancilla[0, 0] = 1.0  # |0,0><0,0|
    joint4 = np.asarray(joint, dtype=complex).reshape(n, dim_env, n, dim_env)
    dim = n * mu * n2 * dim_env
    full = np.einsum("rasb,jk->rjaskb", joint4, ancilla).reshape(dim, dim)
    big_w = tensor(w_mat, np.eye(dim_env))
    chi = big_w @ full @ dagger(big_w)
    # Von Neumann readout of the first ancilla, then trace out both ancillas.
    blocks = chi.reshape(n, mu, n2, dim_env, n, mu, n2, dim_env)
    selected = blocks[:, outcome, :, :, :, outcome, :, :]
    unnormalized = np.einsum("rxasxb->rasb", selected).reshape(n * dim_env, n * dim_env)
    prob = float(np.trace(unnormalized).real)
    return prob, unnormalized / prob
