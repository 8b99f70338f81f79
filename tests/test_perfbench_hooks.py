"""The traced benchmark run wraps program functions by module attribute.

Renaming one of them would break only ``perfbench/run.py --trace 1``; this
test notices without a Spark session.
"""
import sys

sys.path.insert(0, "perfbench")


def test_every_traced_layer_resolves_to_a_callable():
    import tracing

    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _, _ in tracing.LAYERS
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing
