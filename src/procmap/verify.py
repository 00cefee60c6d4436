"""Linear vs bi-linear process verification from a 12-projection experiment.

Twelve inputs grouped into six orthonormal pairs over-determine both map
families; the labels, their projectors and the pairs are the protocol table
in `records`.  The outputs Q are fitted as a linear function of the input
projector (4 free coefficient matrices, 8 redundant records), and the
probability-weighted outputs gamma*Q as a sesquilinear form in it (9 free,
3 redundant); each record's misfit is reported, and a family is accepted
when every misfit is within tolerance.  The classifier tests linearity first,
because a linear process with unit outcome probabilities fits the bi-linear
form exactly as well.  Its report is a plain JSON object, the one `verify`
writes.
"""

from __future__ import annotations

from .records import DIRECTIONS, TWELVE_STATE_LABELS, Dataset, fit

REPORT_SCHEMA = 2

DEFAULT_TOL_LINEAR = 1e-6
DEFAULT_TOL_BILINEAR = 1e-6
GAMMA_WARN_THRESHOLD = 0.02


def gamma_completeness(dataset: Dataset) -> dict[str, float]:
    """Deviation gamma(+) + gamma(-) - 1 for each of the six measurement directions."""
    gammas = dataset.subset(TWELVE_STATE_LABELS).gammas
    return dict(zip(DIRECTIONS, (gammas[::2] + gammas[1::2] - 1.0).tolist()))


def classify(
    dataset: Dataset,
    tol_linear: float = DEFAULT_TOL_LINEAR,
    tol_bilinear: float = DEFAULT_TOL_BILINEAR,
) -> dict:
    """Classify a 12-record experiment as Linear, Bilinear, or Neither, in a report's JSON object.

    The residuals are the per-record misfits of the degree-1 and degree-2
    fits over the dataset's twelve protocol records; any other record is
    ignored.  Gamma-completeness deviations are reported (and warned about
    above GAMMA_WARN_THRESHOLD) but gate only data quality, never the
    verdict.  They are warned about only where a direction's two records are
    one measurement's outcomes, under measurement preparation or when
    `metadata.preparation` names none, and some record has gamma != 1.
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

    warn = dataset.metadata.get("preparation", "measurement") == "measurement" and bool((twelve.gammas != 1.0).any())
    return {
        "schema": REPORT_SCHEMA,
        "verdict": verdict,
        "linear_residuals": linear,
        "bilinear_residuals": bilinear,
        "gamma_completeness": gammas,
        "thresholds": {"linear": float(tol_linear), "bilinear": float(tol_bilinear)},
        "warnings": [
            f"gamma completeness violated in direction {d}: deviation {dev:+.4f}"
            for d, dev in gammas.items()
            if warn and abs(dev) > GAMMA_WARN_THRESHOLD
        ],
    }
