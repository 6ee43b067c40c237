"""Uniform experiment results with provenance and JSON persistence.

Every spec executed through a :class:`~repro.session.session.Session`
produces an :class:`ExperimentResult`: the spec's serialized form, a
``payload`` of plain arrays/floats (decay curves, EPC/EPG fits, optimized
amplitudes), and a ``provenance`` manifest that pins down exactly what
produced the numbers — the spec fingerprint, the backend-properties
fingerprint, the persistent-store key of the channel table involved (if
any), and wall-clock timings of the shared-preparation and execution
phases.

Results round-trip losslessly through JSON (``save``/``load``): NumPy
arrays are tagged inline with dtype and shape (complex arrays store
real/imaginary parts), so a saved result re-loads with identical array
values — good enough to diff two runs bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..utils.validation import ValidationError

__all__ = ["ExperimentResult"]

#: Tag key marking an encoded ndarray inside the JSON payload.
_NDARRAY_TAG = "__ndarray__"


def _encode(value: Any) -> Any:
    """Recursively convert a payload value into JSON-serializable form."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            data = [value.real.tolist(), value.imag.tolist()]
        else:
            data = value.tolist()
        return {
            _NDARRAY_TAG: True,
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": data,
        }
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return {_NDARRAY_TAG: True, "dtype": "complex128", "shape": [],
                "data": [float(value.real), float(value.imag)]}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(f"result payload value is not JSON-serializable: {value!r}")


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if value.get(_NDARRAY_TAG):
            dtype = np.dtype(value["dtype"])
            shape = tuple(value["shape"])
            if dtype.kind == "c":
                real, imag = value["data"]
                array = np.asarray(real, dtype=float) + 1j * np.asarray(imag, dtype=float)
                array = np.asarray(array, dtype=dtype)
            else:
                array = np.asarray(value["data"], dtype=dtype)
            array = array.reshape(shape)
            if not shape and dtype.kind == "c":
                return complex(array)  # encoded scalar complex
            return array
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


@dataclass
class ExperimentResult:
    """Outcome of one executed spec, with provenance and persistence.

    Attributes
    ----------
    kind : str
        The spec kind that produced this result (``rb`` | ``irb`` |
        ``grape`` | ``sweep``).
    spec : dict
        The spec's :meth:`~repro.session.specs.ExperimentSpec.to_dict`
        form, so a result file is self-describing and re-runnable.
    payload : dict
        The measured numbers: decay curves, fits, EPC/EPG values,
        optimized amplitudes… (NumPy arrays allowed; see ``save``).
    provenance : dict
        Reproducibility manifest: ``spec_fingerprint``,
        ``properties_fingerprint``, ``store_root`` / ``store_key`` (when a
        persistent channel table was involved), and ``timings`` with
        ``prepare_s`` / ``execute_s`` wall clocks.
    """

    kind: str
    spec: dict
    payload: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def spec_fingerprint(self) -> str | None:
        """Fingerprint of the producing spec (from provenance)."""
        return self.provenance.get("spec_fingerprint")

    @property
    def cache_hit(self) -> bool:
        """Whether this result was served from the persistent result cache.

        Set by the session on cache hits (``provenance["cache_hit"]``);
        the payload of a hit is bit-identical to the cold run that
        produced the entry — only the provenance carries the marker.
        """
        return bool(self.provenance.get("cache_hit"))

    def payload_fingerprint(self) -> str:
        """SHA-256 of the canonical encoded payload.

        Two results whose payloads are bit-identical (same array values,
        dtypes and shapes, same scalars) share a payload fingerprint —
        the primitive behind the cache's bit-identity assertions in tests
        and the warm-replay benchmark.
        """
        payload = json.dumps(_encode(self.payload), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def __getitem__(self, key: str):
        """Payload access shorthand: ``result["gate_error"]``."""
        return self.payload[key]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_json(self, indent: int | None = 2) -> str:
        """The result as a JSON string (arrays tagged with dtype/shape)."""
        document = {
            "format": "repro.session.result/v1",
            "kind": self.kind,
            "spec": self.spec,
            "payload": _encode(self.payload),
            "provenance": _encode(self.provenance),
        }
        return json.dumps(document, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_document(json.loads(text))

    @classmethod
    def from_document(cls, document: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output already parsed.

        The service's job documents carry a finished result this way, so
        a client decodes it without serializing it again.
        """
        if document.get("format") != "repro.session.result/v1":
            raise ValidationError(
                f"not a session result document: format={document.get('format')!r}"
            )
        return cls(
            kind=document["kind"],
            spec=document["spec"],
            payload=_decode(document["payload"]),
            provenance=_decode(document["provenance"]),
        )

    def save(self, path: str | Path) -> Path:
        """Write the result to a JSON file; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        """Read a result previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    def __repr__(self) -> str:
        fp = self.spec_fingerprint
        return (
            f"ExperimentResult(kind={self.kind!r}, "
            f"spec={fp[:12] + '…' if fp else '?'}, "
            f"payload_keys={sorted(self.payload)})"
        )
