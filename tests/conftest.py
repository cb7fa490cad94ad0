import pytest

from fracnoether import expressions, linsolve


@pytest.fixture
def defined(monkeypatch):
    """The functions built by ``Emitter.define``, as (filename, source).

    Every function is counted, whether its code was compiled or taken from
    the code cache, and whether it was emitted or taken from the shape
    cache, so a count here catches code that rebuilds a function it could
    have kept, and does not depend on which tests ran before it: the code
    cache, the shape cache and the per-size solvers of ``linsolve.solve``
    start empty.
    """
    calls = []
    define = expressions.Emitter.define

    def recording_define(self, source, name, **names):
        calls.append((f"<compiled {name}>", "\n".join(source)))
        return define(self, source, name, **names)

    expressions._compile.cache_clear()
    expressions._SHAPES.clear()
    linsolve._solver.cache_clear()
    monkeypatch.setattr(expressions.Emitter, "define", recording_define)
    return calls


@pytest.fixture
def compiled(monkeypatch):
    """The ``compile`` calls made behind the code cache, as (filename, source).

    The code cache, the shape cache and the per-size solvers of
    ``linsolve.solve`` start empty, so what a test counts does not depend
    on which tests ran before it in the process.
    """
    calls = []

    def recording_compile(source, filename, mode):
        calls.append((filename, source))
        return compile(source, filename, mode)

    expressions._compile.cache_clear()
    expressions._SHAPES.clear()
    linsolve._solver.cache_clear()
    monkeypatch.setattr(expressions, "compile", recording_compile, raising=False)
    return calls
