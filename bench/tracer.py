"""Per-layer tracing of gleason_lab from outside the package.

A ``sys.setprofile`` hook opens a span whenever control enters one of
the layer modules from a different layer, from the benchmark, or from
anything outside gleason_lab. Calls within one layer, and calls into
numpy or the standard library, stay inside the caller's span, so numpy
time counts toward the gleason_lab layer that called it. A span records
its name (``<layer>.<qualname>``), start, end, parent span and op id,
and whether it ended by raising. Spans stay in memory; ``layer_metrics``
folds them into per-layer figures when the run ends.

Some functions are also counted on every entry, boundary or not: the
validating constructors, tensor products, embeddings, projector keys,
spanning-set builds and frame evaluations inside ``certify_marginal``.
"""

from __future__ import annotations

import dis
import importlib
import sys
import time

LAYERS = ("operators", "measurements", "frames", "marginality", "serialization", "report", "cli")
_RETURN_VALUE = dis.opmap["RETURN_VALUE"]

# counter name -> (layer, function) pairs it counts on every entry
COUNTED = {
    "operators.validations": [("operators", "make_projector"), ("operators", "make_density")],
    "operators.tensor_calls": [("operators", "tensor")],
    "measurements.pvm_validations": [("measurements", "validate_pvm")],
    "measurements.embed_calls": [("measurements", "embed")],
    "measurements.projector_key_calls": [("measurements", "projector_key")],
    "marginality.spanning_builds": [("marginality", "spanning_projectors")],
    "marginality.certify_calls": [("marginality", "certify_marginal")],
}


class Tracer:
    """Collects spans for one process; install with ``start``/``stop``."""

    def __init__(self):
        modules = {layer: importlib.import_module(f"gleason_lab.{layer}") for layer in LAYERS}
        self.spans: list[tuple] = []     # (id, parent, op, name, layer, t0, t1, self_s, failed)
        self.counts = {name: 0 for name in COUNTED}
        self.counts["frames.evals_in_cert"] = 0
        self.spanning_build_s = 0.0
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []     # [frame, span_id, layer, name, t0, child_s]
        self._layer_of_file = {m.__file__: layer for layer, m in modules.items()}
        self._co_code: dict = {}
        self._counter_of_code = {
            getattr(modules[layer], attr).__code__: name
            for name, targets in COUNTED.items()
            for layer, attr in targets
        }
        base = modules["frames"].FrameFunction
        self._frame_eval_codes = {
            cls.__call__.__code__
            for cls in vars(modules["frames"]).values()
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base
        }
        self._certify_code = modules["marginality"].certify_marginal.__code__
        self._spanning_code = modules["marginality"].spanning_projectors.__code__
        self._certify_depth = 0
        self._spanning_open: list[float] = []

    def start(self) -> None:
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            layer = self._layer_of_file.get(code.co_filename)
            if layer is None:
                return
            now = time.perf_counter()
            counter = self._counter_of_code.get(code)
            if counter is not None:
                self.counts[counter] += 1
                if code is self._certify_code:
                    self._certify_depth += 1
                elif code is self._spanning_code:
                    self._spanning_open.append(now)
            elif self._certify_depth and code in self._frame_eval_codes:
                self.counts["frames.evals_in_cert"] += 1
            stack = self._stack
            if not stack or stack[-1][2] != layer:
                stack.append([frame, self._next_id, layer, f"{layer}.{code.co_qualname}", now, 0.0])
                self._next_id += 1
        elif event == "return":
            code = frame.f_code
            if code is self._certify_code:
                self._certify_depth -= 1
            elif code is self._spanning_code:
                self.spanning_build_s += time.perf_counter() - self._spanning_open.pop()
            stack = self._stack
            if stack and stack[-1][0] is frame:
                now = time.perf_counter()
                _, span_id, layer, name, t0, child_s = stack.pop()
                duration = now - t0
                parent = stack[-1][1] if stack else -1
                if stack:
                    stack[-1][5] += duration
                co_code = self._co_code.get(code)
                if co_code is None:
                    co_code = self._co_code[code] = code.co_code
                failed = co_code[frame.f_lasti] != _RETURN_VALUE
                self.spans.append((span_id, parent, self.op_id, name, layer,
                                   t0, now, duration - child_s, failed))

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and failures plus the entry counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.failed"] = 0
        for span in self.spans:
            layer = span[4]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_ms"] += span[7] * 1e3
            out[f"{layer}.failed"] += int(span[8])
        out.update(self.counts)
        out["marginality.spanning_build_ms"] = self.spanning_build_s * 1e3
        return out


def merge(parts: list[dict]) -> dict:
    """Sum per-layer metric dicts from several traced processes."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total
