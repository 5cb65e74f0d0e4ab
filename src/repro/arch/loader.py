"""Loading architecture descriptions from their YAML files."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.arch import yamllite
from repro.core.interfaces import interface_by_name

__all__ = ["PortBinding", "InterfaceImplementation", "ArchDescription",
           "available_architectures", "load_architecture", "descriptions_directory"]


def descriptions_directory() -> Path:
    return Path(__file__).resolve().parent / "descriptions"


@dataclass(frozen=True)
class PortBinding:
    """How one vendor-module port is driven.

    ``value`` is one of:
      * an interface data-input name (``A``, ``I0``, ...),
      * ``(concat X Y ...)`` — a concatenation of interface inputs,
      * ``(bv <value> <width>)`` — a constant.
    """

    port: str
    width: int
    value: str


@dataclass
class InterfaceImplementation:
    """One ``implementations:`` entry of an architecture description."""

    interface: str
    interface_params: Dict[str, int]
    module: str
    ports: List[PortBinding]
    internal_data: Dict[str, int]
    output_port: str
    clock: str = ""

    def interface_inputs_used(self) -> List[str]:
        names: List[str] = []
        for binding in self.ports:
            for token in _interface_inputs_of_value(binding.value):
                if token not in names:
                    names.append(token)
        return names


def _interface_inputs_of_value(value: str) -> List[str]:
    text = str(value).strip()
    if text.startswith("(bv"):
        return []
    if text.startswith("(concat"):
        return [tok for tok in text.strip("()").split()[1:]]
    return [text]


@dataclass
class ArchDescription:
    """A loaded architecture description."""

    name: str
    family: str
    implementations: List[InterfaceImplementation]
    source_path: Optional[Path] = None
    source_lines: int = 0

    def implementation(self, interface_name: str) -> Optional[InterfaceImplementation]:
        for impl in self.implementations:
            if impl.interface == interface_name:
                return impl
        return None

    def implements(self, interface_name: str) -> bool:
        return self.implementation(interface_name) is not None

    def lut_size(self) -> Optional[int]:
        impl = self.implementation("LUT")
        if impl is None:
            return None
        return impl.interface_params.get("num_inputs")


_ALIASES = {
    "xilinx": "xilinx-ultrascale-plus",
    "xilinx-ultrascale-plus": "xilinx-ultrascale-plus",
    "ultrascale-plus": "xilinx-ultrascale-plus",
    "lattice": "lattice-ecp5",
    "lattice-ecp5": "lattice-ecp5",
    "ecp5": "lattice-ecp5",
    "intel": "intel-cyclone10lp",
    "intel-cyclone10lp": "intel-cyclone10lp",
    "cyclone10lp": "intel-cyclone10lp",
    "sofa": "sofa",
}


def available_architectures() -> List[str]:
    """Canonical names of the shipped architecture descriptions."""
    return sorted(p.stem for p in descriptions_directory().glob("*.yml"))


def _count_sloc(text: str) -> int:
    count = 0
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if line and not line.startswith("#"):
            count += 1
    return count


def load_architecture(name_or_path: str) -> ArchDescription:
    """Load an architecture description by name, alias, or file path."""
    path = Path(name_or_path)
    if not path.exists():
        canonical = _ALIASES.get(name_or_path.lower().removesuffix(".yml"))
        if canonical is None:
            raise KeyError(
                f"unknown architecture {name_or_path!r}; available: {available_architectures()}")
        path = descriptions_directory() / f"{canonical}.yml"
    text = path.read_text()
    data = yamllite.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"architecture description {path} is not a mapping")

    implementations: List[InterfaceImplementation] = []
    for entry in data.get("implementations", []) or []:
        interface_info = entry.get("interface", {})
        interface_name = interface_info.get("name")
        interface_by_name(interface_name)  # validates the interface exists
        params = {key: value for key, value in interface_info.items() if key != "name"}
        ports = [PortBinding(p["name"], int(p.get("width", 1)), str(p["value"]))
                 for p in entry.get("ports", []) or []]
        internal = {key: int(width) for key, width in (entry.get("internal_data") or {}).items()}
        outputs = entry.get("outputs", {}) or {}
        output_port = outputs.get("O") or next(iter(outputs.values()), "O")
        implementations.append(InterfaceImplementation(
            interface=interface_name,
            interface_params=params,
            module=entry.get("module", ""),
            ports=ports,
            internal_data=internal,
            output_port=output_port,
            clock=entry.get("clock", "") or "",
        ))

    return ArchDescription(
        name=data.get("name", path.stem),
        family=data.get("family", data.get("name", path.stem)),
        implementations=implementations,
        source_path=path,
        source_lines=_count_sloc(text),
    )
