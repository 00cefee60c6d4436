"""The exit codes of the CLI, the base class of every error it reports, and how a diagnostic shows an input value."""

import reprlib

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_ZERO_PROBABILITY = 3
EXIT_MISSING_LABELS = 4
EXIT_NOT_A_FRAME = 5

# The most characters a diagnostic spends on one input value: an integer beyond the float range shows whole
# up to 401 digits, a longer string its two ends, a list its first six items and a nested one two levels.
SHOWN_MAX = 401
_REPR = reprlib.Repr()  # limits are attributes: the constructor takes none before Python 3.12
_REPR.maxlevel, _REPR.maxstring, _REPR.maxlong = 2, 80, SHOWN_MAX


class ProcmapError(Exception):
    """An input procmap rejects; the CLI prints it as one line and exits with `exit_code`."""

    exit_code = EXIT_BAD_CONFIG


def shown(value) -> str:
    """repr(value) cut to at most SHOWN_MAX characters, for a value read from input in a one-line diagnostic."""
    text = _REPR.repr(value)
    return text if len(text) <= SHOWN_MAX else text[: SHOWN_MAX - 3] + "..."
