"""Linear vs bi-linear process verification from a 12-projection experiment.

Twelve inputs grouped into six orthonormal pairs over-determine both map
families; the labels, their projectors and the pairs are the protocol table
in `records`.  The outputs Q are fitted as a linear function of the input
projector (4 free coefficient matrices, 8 redundant records), and the
probability-weighted outputs gamma*Q as a sesquilinear form in it (9 free,
3 redundant); each record's misfit is reported, and a family is accepted
when every misfit is within tolerance.  The classifier tests linearity first,
because a linear process with unit outcome probabilities fits the bi-linear
form exactly as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .records import DIRECTIONS, TWELVE_STATE_LABELS, Dataset, fit

REPORT_SCHEMA = 2

DEFAULT_TOL_LINEAR = 1e-6
DEFAULT_TOL_BILINEAR = 1e-6
GAMMA_WARN_THRESHOLD = 0.02


def gamma_completeness(dataset: Dataset) -> dict[str, float]:
    """Deviation gamma(+) + gamma(-) - 1 for each of the six measurement directions."""
    gammas = dataset.subset(TWELVE_STATE_LABELS).gammas
    return dict(zip(DIRECTIONS, (gammas[::2] + gammas[1::2] - 1.0).tolist()))


@dataclass(frozen=True)
class VerificationReport:
    linear_residuals: dict[str, float]
    bilinear_residuals: dict[str, float]
    gamma_completeness: dict[str, float]
    verdict: str
    tol_linear: float
    tol_bilinear: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "verdict": self.verdict,
            "linear_residuals": {k: float(v) for k, v in self.linear_residuals.items()},
            "bilinear_residuals": {k: float(v) for k, v in self.bilinear_residuals.items()},
            "gamma_completeness": {k: float(v) for k, v in self.gamma_completeness.items()},
            "thresholds": {"linear": float(self.tol_linear), "bilinear": float(self.tol_bilinear)},
            "warnings": list(self.warnings),
        }


def classify(
    dataset: Dataset,
    tol_linear: float = DEFAULT_TOL_LINEAR,
    tol_bilinear: float = DEFAULT_TOL_BILINEAR,
) -> VerificationReport:
    """Classify a 12-record experiment as Linear, Bilinear, or Neither.

    The residuals are the per-record misfits of the degree-1 and degree-2
    fits over the dataset's twelve protocol records; any other record is
    ignored.  Gamma-completeness deviations are reported (and warned about
    above GAMMA_WARN_THRESHOLD) but gate only data quality, never the
    verdict.  When every record has gamma = 1 the preparation was not
    selective, so the completeness check does not apply and gives no
    warnings.
    """
    twelve = dataset.subset(TWELVE_STATE_LABELS)
    linear = fit(twelve, degree=1).residuals
    bilinear = fit(twelve, degree=2).residuals
    gammas = gamma_completeness(twelve)

    if all(v <= tol_linear for v in linear.values()):
        verdict = "Linear"
    elif all(v <= tol_bilinear for v in bilinear.values()):
        verdict = "Bilinear"
    else:
        verdict = "Neither"

    selective = bool((twelve.gammas != 1.0).any())
    warnings = tuple(
        f"gamma completeness violated in direction {d}: deviation {dev:+.4f}"
        for d, dev in gammas.items()
        if selective and abs(dev) > GAMMA_WARN_THRESHOLD
    )
    return VerificationReport(
        linear_residuals=linear,
        bilinear_residuals=bilinear,
        gamma_completeness=gammas,
        verdict=verdict,
        tol_linear=tol_linear,
        tol_bilinear=tol_bilinear,
        warnings=warnings,
    )
