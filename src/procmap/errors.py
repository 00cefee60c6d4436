"""The exit codes of the CLI and the base class of every error it reports."""

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_ZERO_PROBABILITY = 3
EXIT_MISSING_LABELS = 4
EXIT_NOT_A_FRAME = 5


class ProcmapError(Exception):
    """An input procmap rejects; the CLI prints it as one line and exits with `exit_code`."""

    exit_code = EXIT_BAD_CONFIG
