"""The benchmark tracer (bench/tracer.py) counts calls by the code objects
of plain module functions. A cache or wrapper around one of them would
leave it without ``__code__`` and break traced benchmark runs; this
check fails first. The tracer is read from its source, never imported as
a package, so nothing is written under bench/.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_namespace() -> dict:
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_counted_target_is_a_plain_function():
    tracer = _tracer_namespace()
    targets = [pair for pairs in tracer["COUNTED"].values() for pair in pairs]
    assert targets
    for layer, name in targets:
        module = importlib.import_module(f"gleason_lab.{layer}")
        assert hasattr(getattr(module, name), "__code__"), f"{layer}.{name}"
    frames = importlib.import_module("gleason_lab.frames")
    assert hasattr(frames.FrameFunction.__call__, "__code__")


def test_the_tracer_builds_its_code_maps():
    namespace = _tracer_namespace()
    tracer = namespace["Tracer"]()
    assert set(tracer._counter_of_code.values()) == set(namespace["COUNTED"])
