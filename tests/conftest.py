import contextlib

import pytest

from fracnoether import cli, expressions


class Made:
    """The functions ``expressions.shaped`` makes while a test runs, seen
    through ``compile`` and ``exec`` as ``expressions`` looks them up.

    ``shaped`` compiles the source of a function ``name`` as
    ``<compiled name>`` on a miss of the shape cache, and makes every
    function, miss or hit, by running that code; the code of a hit was
    compiled here before, so it is known by the source seen compiled.
    Every cache starts empty (``cli.clear_caches``), so what a test counts
    does not depend on which tests ran before it in the process.
    """

    def __init__(self, monkeypatch):
        self.compiled = []  # (filename, source) per compile: one per miss
        self.defined = []  # (filename, source) per function made, miss or hit
        # (filename, source, function, whether it was emitted) -> the
        # function handed out instead, for each watcher in turn
        self.watchers = []
        self._sources = {}  # code object -> its source
        self._fresh = None  # the code compiled and not run yet
        cli.clear_caches()
        monkeypatch.setattr(expressions, "compile", self._compile, raising=False)
        monkeypatch.setattr(expressions, "exec", self._exec, raising=False)

    def _compile(self, source, filename, mode):
        self.compiled.append((filename, source))
        code = self._fresh = compile(source, filename, mode)
        self._sources[code] = source
        return code

    def _exec(self, code, namespace):
        exec(code, namespace)
        filename, source = code.co_filename, self._sources[code]
        emitted, self._fresh = code is self._fresh, None
        self.defined.append((filename, source))
        name = filename[len("<compiled "):-1]
        for watcher in self.watchers:
            namespace[name] = watcher(filename, source, namespace[name], emitted)

    @contextlib.contextmanager
    def watching(self, watcher):
        """Hand each function made inside the block to ``watcher`` too."""
        self.watchers.append(watcher)
        try:
            yield
        finally:
            self.watchers.remove(watcher)


@pytest.fixture
def made(monkeypatch):
    """The functions ``expressions.shaped`` makes, from empty caches (:class:`Made`)."""
    return Made(monkeypatch)


@pytest.fixture
def defined(made):
    """The functions ``expressions.shaped`` makes, as (filename, source).

    Every function is counted, whether it was emitted and compiled or
    made from the code the shape cache keeps, so a count here catches
    code that rebuilds a function it could have kept.
    """
    return made.defined


@pytest.fixture
def compiled(made):
    """The ``compile`` calls of ``expressions.shaped``, as (filename,
    source): one per miss of the shape cache."""
    return made.compiled
