"""Model file ingestion.

A model file is JSON with sections:

    alphabet    list of symbol names
    incidence   list of 0/1 rows
    potentials  name -> {"depth": d, "table": {word: value}}  (word keys use
                symbol names, comma-separated when names are multi-character;
                depth-1 tables may instead give "values": [one per symbol])
    ifs         optional: {"interval": [u, v], "maps": {name: {"rate": r, "offset": t}}}
    gibbs       optional: name of the potential to normalize to zero pressure

Validation failures name the violated invariant.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .potentials import LocallyConstantPotential
from .sft import SftSpec

if TYPE_CHECKING:  # the IFS layer is imported only by models that use it
    from .ifs import AffineIfs, CdfModel


@dataclass
class ModelBundle:
    path: str
    sha256: str
    spec: SftSpec
    potentials: dict
    ifs: AffineIfs
    gibbs_name: str

    def potential(self, name: str = None) -> LocallyConstantPotential:
        if name is None:
            if self.gibbs_name is not None:
                name = self.gibbs_name
            elif len(self.potentials) == 1:
                name = next(iter(self.potentials))
            else:
                raise ValidationError(
                    f"model defines {sorted(self.potentials)}; pick one explicitly"
                )
        if name not in self.potentials:
            raise ValidationError(f"model has no potential named {name!r}")
        return self.potentials[name]

    def potential_or(self, name: str = None, fallback: str = "phi") -> LocallyConstantPotential:
        """Potential ``name``, else ``fallback`` if defined, else ``potential``'s default."""
        return self.potential(name or (fallback if fallback in self.potentials else None))

    def pair(self, phi_name: str = None, psi_name: str = None):
        return self.potential_or(phi_name), self.potential_or(psi_name, "psi")

    def cdf_model(self, potential_name: str = None) -> CdfModel:
        if self.ifs is None:
            raise ValidationError("model has no 'ifs' section")
        name = potential_name or self.gibbs_name
        if name is None:
            raise ValidationError("model needs a 'gibbs' potential name for CDF work")
        from .ifs import CdfModel
        return CdfModel(self.ifs, self.potential(name))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"model file lacks required section {key!r}")
    return doc[key]


@contextmanager
def _section(key: str):
    """Report a section missing a field or holding a wrong type as a ValidationError naming it."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"model file section {key!r} is malformed: {exc!r}") from None


def load_model(path: str) -> ModelBundle:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path!r}: {exc.strerror}") from None
    sha = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("model file must contain a JSON object")

    with _section("alphabet"):
        alphabet = tuple(_require(doc, "alphabet"))
    with _section("incidence"):
        spec = SftSpec(alphabet=alphabet, incidence=np.asarray(_require(doc, "incidence")))

    potentials = {}
    with _section("potentials"):
        for name, body in doc.get("potentials", {}).items():
            if "values" in body:
                pot = LocallyConstantPotential.from_values(spec, body["values"])
                if int(body.get("depth", 1)) != 1:
                    raise ValidationError(f"potential {name!r}: 'values' form is depth 1")
            else:
                entries = tuple((spec.word(k), float(v)) for k, v in body["table"].items())
                pot = LocallyConstantPotential(spec, int(body["depth"]), entries)
            potentials[name] = pot

    ifs = None
    if "ifs" in doc:
        from .ifs import AffineIfs
        body = doc["ifs"]
        with _section("ifs"):
            interval = tuple(float(x) for x in _require(body, "interval"))
            maps = _require(body, "maps")
            missing = [a for a in spec.alphabet if a not in maps]
            if missing:
                raise ValidationError(f"ifs section lacks maps for symbols {missing}")
            rates = np.array([float(maps[a]["rate"]) for a in spec.alphabet])
            offsets = np.array([float(maps[a]["offset"]) for a in spec.alphabet])
            ifs = AffineIfs(spec=spec, interval=interval, rates=rates, offsets=offsets)

    gibbs = doc.get("gibbs")
    with _section("gibbs"):
        if gibbs is not None and gibbs not in potentials:
            raise ValidationError(f"gibbs names unknown potential {gibbs!r}")

    return ModelBundle(path=str(path), sha256=sha, spec=spec,
                       potentials=potentials, ifs=ifs, gibbs_name=gibbs)
