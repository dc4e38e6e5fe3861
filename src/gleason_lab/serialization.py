"""JSON wire formats.

Complex entries are two-element [re, im] arrays and matrices are
row-major nested lists. Values survive a JSON round trip at full double
precision because Python emits shortest round-trip float literals;
bit-exactness across platforms is not promised.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import SerializationError
from .frames import (
    BornFrameFunction,
    DeterministicFrameFunction,
    FrameFunction,
    TabulatedFrameFunction,
)
from .marginality import (
    BlochWitness,
    EigenWitness,
    MarginalityCertificate,
    ResidualWitness,
)
from .measurements import PVM, IntertwineGraph, validate_pvm
from .operators import (
    as_complex_matrix,
    make_density,
    make_projector,
)
from .tolerances import TOL


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    arr = as_complex_matrix(m)
    return [
        [[float(z.real), float(z.imag)] for z in row]
        for row in arr
    ]


def matrix_from_json(data: Any, name: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise SerializationError(f"{name} is not a nested [re, im] array: {exc}") from None
    # Strings, nulls, objects and integers beyond 64 bits give non-numeric
    # dtypes here; a direct float conversion would accept numeric strings
    # and raise OverflowError on huge integers. Booleans mixed with numbers
    # come out as numbers, so they are looked for entry by entry.
    if arr.dtype.kind not in "iuf" or any(
        isinstance(x, bool) for x in np.asarray(data, dtype=object).flat
    ):
        raise SerializationError(f"{name} entries must be numbers in float range")
    arr = arr.astype(float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SerializationError(
            f"{name} must be rows x cols x [re, im], got shape {arr.shape}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _number(value: Any, name: str) -> float:
    """A JSON number as a float; booleans and out-of-range integers are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise SerializationError(f"{name} is out of float range") from None


def _list(value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise SerializationError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _field(obj: Any, key: str, name: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SerializationError(f"{name} needs the field {key!r}")
    return obj[key]


def _check_dim(obj: dict, dim: int) -> None:
    """An object's ``dim`` may be omitted, but when present it must be a
    number equal to the dimension of its content."""
    if "dim" in obj and _number(obj["dim"], "dim") != dim:
        raise SerializationError(
            f"declared dim {obj['dim']} does not match the content's dimension {dim}"
        )


def pvm_to_json(m: PVM) -> dict:
    return {
        "dim": m.dim,
        "elements": [matrix_to_json(row) for row in m.stack],
        "labels": list(m.labels),
    }


def pvm_from_json(obj: Any) -> PVM:
    elements = [
        make_projector(matrix_from_json(e, f"elements[{i}]"))
        for i, e in enumerate(_list(_field(obj, "elements", "PVM object"), "elements"))
    ]
    labels = obj.get("labels")
    if labels is not None:
        if not all(isinstance(label, str) for label in _list(labels, "labels")):
            raise SerializationError("labels must be strings")
    pvm = validate_pvm(elements, labels=labels)
    _check_dim(obj, pvm.dim)
    return pvm


def frame_to_json(f: FrameFunction) -> dict:
    if isinstance(f, BornFrameFunction):
        return {"dim": f.dim, "repr": "born", "rho": matrix_to_json(f.rho.matrix)}
    if isinstance(f, DeterministicFrameFunction):
        return {"dim": f.dim, "repr": "deterministic", "rule": f.rule}
    if isinstance(f, TabulatedFrameFunction):
        return {
            "dim": f.dim,
            "repr": "table",
            "entries": [
                {"projector": matrix_to_json(p.matrix), "value": v}
                for p, v in f.entries
            ],
        }
    raise SerializationError(f"cannot serialize frame function of type {type(f).__name__}")


def frame_from_json(obj: Any) -> FrameFunction:
    kind = _field(obj, "repr", "frame object")
    if kind == "born":
        rho = make_density(matrix_from_json(_field(obj, "rho", "born frame"), "rho"))
        frame = BornFrameFunction(rho)
    elif kind == "deterministic":
        rule = obj.get("rule", DeterministicFrameFunction.rule)
        if rule != DeterministicFrameFunction.rule:
            raise SerializationError(f"unknown hemisphere rule {rule!r}")
        frame = DeterministicFrameFunction()
    elif kind == "table":
        entries = _list(obj.get("entries"), "entries")
        if not entries:
            raise SerializationError("tabulated frame needs non-empty 'entries'")
        pairs = [
            (
                make_projector(
                    matrix_from_json(_field(e, "projector", f"entries[{i}]"), f"entries[{i}]")
                ),
                _number(_field(e, "value", f"entries[{i}]"), f"entries[{i}].value"),
            )
            for i, e in enumerate(entries)
        ]
        frame = TabulatedFrameFunction(pairs)
    else:
        raise SerializationError(f"unknown frame repr {kind!r}")
    _check_dim(obj, frame.dim)
    return frame


def graph_to_json(g: IntertwineGraph) -> dict:
    return {
        "nodes": [
            {"key": n.key, "rank": n.rank, "degree": n.degree} for n in g.nodes
        ],
        "incidence": [[key, idx] for key, idx in g.incidence],
    }


def witness_to_json(w) -> dict:
    if isinstance(w, BlochWitness):
        return {"bloch": [w.bloch[0], w.bloch[1], w.bloch[2]], "norm": w.norm}
    if isinstance(w, EigenWitness):
        return {
            "min_eig": w.min_eig,
            "eigenvector": [[float(c.real), float(c.imag)] for c in w.eigenvector],
        }
    if isinstance(w, ResidualWitness):
        return {
            "projector_key": w.projector_key,
            "label": w.label,
            "residual": w.residual,
        }
    raise SerializationError(f"cannot serialize witness of type {type(w).__name__}")


def certificate_to_json(cert: MarginalityCertificate) -> dict:
    out = {
        "verdict": cert.verdict.value,
        "dim": cert.dim,
        "rho_hat": matrix_to_json(cert.rho_hat),
        "linear_residual": cert.linear_residual,
        "min_eig": cert.min_eig,
        "tolerances": TOL.to_dict(),
        "spanning_set_id": cert.spanning_set_id,
    }
    if cert.witness is not None:
        out["witness"] = witness_to_json(cert.witness)
    return out
