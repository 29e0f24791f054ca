"""Stage boundaries: a debug log line at the start and the end of a named
stage, with its wall seconds. Shared by synthesis, CSS and the CLI."""

from __future__ import annotations

import functools
import logging
import time


class Stage:
    """Context manager logging `<name>: start` and `<name>: end in <s> s` at
    debug level on `logger` (or `<name>: raised <error> after <s> s`); the
    wall seconds stay in `seconds`. Used as a decorator, each call of the
    function is one stage."""

    def __init__(self, logger: logging.Logger, name: str):
        self.logger = logger
        self.name = name
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stage":
        self.logger.debug("%s: start", self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        if exc_type is None:
            self.logger.debug("%s: end in %.6f s", self.name, self.seconds)
        else:
            self.logger.debug("%s: raised %s after %.6f s", self.name, exc_type.__name__, self.seconds)

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with Stage(self.logger, self.name):
                return fn(*args, **kwargs)

        return wrapper
