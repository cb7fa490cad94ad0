import pytest

from fracnoether import cli, expressions


@pytest.fixture
def defined(monkeypatch):
    """The functions built by ``Emitter.define``, as (filename, source).

    Every function is counted, whether it was emitted and compiled or
    taken, with its code, from the shape cache, so a count here catches
    code that rebuilds a function it could have kept, and does not depend
    on which tests ran before it: every cache starts empty
    (``cli.clear_caches``).
    """
    calls = []
    define = expressions.Emitter.define

    def recording_define(self, source, name, **names):
        calls.append((f"<compiled {name}>", "\n".join(source)))
        return define(self, source, name, **names)

    cli.clear_caches()
    monkeypatch.setattr(expressions.Emitter, "define", recording_define)
    return calls


@pytest.fixture
def compiled(monkeypatch):
    """The ``compile`` calls made by ``Emitter.define``, as (filename, source):
    one per miss of the shape cache.

    Every cache starts empty (``cli.clear_caches``), so what a test counts
    does not depend on which tests ran before it in the process.
    """
    calls = []

    def recording_compile(source, filename, mode):
        calls.append((filename, source))
        return compile(source, filename, mode)

    cli.clear_caches()
    monkeypatch.setattr(expressions, "compile", recording_compile, raising=False)
    return calls
