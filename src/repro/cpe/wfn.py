"""Well-Formed CPE Names and their 2.2/2.3 bindings.

Follows NIST IR 7695 (CPE Naming 2.3).  Only the subset of escaping
behaviour exercised by NVD data is implemented: logical ANY/NA values,
percent-encoding for the 2.2 URI binding, and backslash escaping for
the 2.3 formatted-string binding.
"""

from __future__ import annotations

import dataclasses
import re


class _Logical:
    """Singleton logical value (ANY or NA) used in WFN attributes."""

    __slots__ = ("_label",)

    def __init__(self, label: str) -> None:
        self._label = label

    def __repr__(self) -> str:
        return self._label

    def __str__(self) -> str:
        return self._label


#: Logical "any value" (rendered ``*`` in 2.3, empty in 2.2).
ANY = _Logical("ANY")
#: Logical "not applicable" (rendered ``-`` in 2.3).
NA = _Logical("NA")

Attribute = str | _Logical

_PART_VALUES = {"a", "o", "h", "*", "-"}

_ATTRS = (
    "part",
    "vendor",
    "product",
    "version",
    "update",
    "edition",
    "language",
    "sw_edition",
    "target_sw",
    "target_hw",
    "other",
)

# Characters that must be escaped in a 2.3 formatted string value.
# Period, hyphen, and underscore stay raw, matching NVD's own cpe23Uri
# output (e.g. cpe:2.3:a:nodejs:node.js:...).
_FS_SPECIAL = re.compile(r"([^A-Za-z0-9._-])")
_FS_UNESCAPE = re.compile(r"\\(.)")

# Characters allowed raw in a 2.2 URI component.
_URI_OK = re.compile(r"[A-Za-z0-9._~-]")


@dataclasses.dataclass(frozen=True, slots=True)
class CpeName:
    """A Well-Formed CPE Name.

    String attributes are stored in their *unbound* (unescaped,
    lowercase) form; ``ANY``/``NA`` represent the logical values.
    """

    part: str
    vendor: Attribute
    product: Attribute
    version: Attribute = ANY
    update: Attribute = ANY
    edition: Attribute = ANY
    language: Attribute = ANY
    sw_edition: Attribute = ANY
    target_sw: Attribute = ANY
    target_hw: Attribute = ANY
    other: Attribute = ANY

    def __post_init__(self) -> None:
        if self.part not in ("a", "o", "h"):
            raise ValueError(f"CPE part must be 'a', 'o' or 'h'; got {self.part!r}")
        for attr in _ATTRS[1:]:
            value = getattr(self, attr)
            if isinstance(value, str):
                if not value:
                    raise ValueError(f"empty string for CPE attribute {attr!r}")
                if value != value.lower():
                    raise ValueError(
                        f"WFN attribute values are lowercase; got {value!r} for {attr}"
                    )

    def with_names(self, vendor: str | None = None, product: str | None = None) -> "CpeName":
        """Return a copy with the vendor and/or product replaced.

        This is the operation the cleaning pipeline applies when
        remapping inconsistent names onto canonical ones.
        """
        return dataclasses.replace(
            self,
            vendor=vendor if vendor is not None else self.vendor,
            product=product if product is not None else self.product,
        )

    def attributes(self) -> dict[str, Attribute]:
        """All eleven WFN attributes as an ordered mapping."""
        return {attr: getattr(self, attr) for attr in _ATTRS}


def _escape_fs(value: str) -> str:
    return _FS_SPECIAL.sub(r"\\\1", value)


def _unescape_fs(value: str) -> str:
    return _FS_UNESCAPE.sub(r"\1", value)


def _bind_fs_value(value: Attribute) -> str:
    if value is ANY:
        return "*"
    if value is NA:
        return "-"
    return _escape_fs(value)


def _unbind_fs_value(text: str) -> Attribute:
    if text == "*":
        return ANY
    if text == "-":
        return NA
    if "\\" not in text:  # nothing escaped (most NVD names)
        return text.lower()
    return _unescape_fs(text).lower()


def bind_to_formatted_string(name: CpeName) -> str:
    """Bind a WFN to a CPE 2.3 formatted string."""
    values = [_bind_fs_value(v) if i else str(v) for i, v in enumerate(name.attributes().values())]
    return "cpe:2.3:" + ":".join(values)


def _split_fs(text: str) -> list[str]:
    """Split a 2.3 formatted string on unescaped colons."""
    if "\\" not in text:  # no escapes: every colon separates
        return text.split(":")
    parts: list[str] = []
    current: list[str] = []
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == ":":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def parse_formatted_string(text: str) -> CpeName:
    """Parse a CPE 2.3 formatted string into a WFN."""
    if not text.startswith("cpe:2.3:"):
        raise ValueError(f"not a CPE 2.3 formatted string: {text!r}")
    components = _split_fs(text[len("cpe:2.3:"):])
    if len(components) != 11:
        raise ValueError(
            f"CPE 2.3 formatted string must have 11 components, got {len(components)}"
        )
    part = components[0]
    if part not in _PART_VALUES or part in ("*", "-"):
        if part not in ("a", "o", "h"):
            raise ValueError(f"invalid CPE part {part!r}")
    values = [_unbind_fs_value(component) for component in components[1:]]
    return CpeName(part, *values)


def _encode_uri_component(value: Attribute) -> str:
    if value is ANY:
        return ""
    if value is NA:
        return "-"
    out: list[str] = []
    for char in value:
        if _URI_OK.match(char):
            out.append(char)
        else:
            out.append(f"%{ord(char):02x}")
    return "".join(out)


def _decode_uri_component(text: str) -> Attribute:
    if text == "":
        return ANY
    if text == "-":
        return NA
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "%" and i + 2 < len(text) + 1 and i + 3 <= len(text):
            try:
                out.append(chr(int(text[i + 1 : i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(text[i])
        i += 1
    return "".join(out).lower()


def bind_to_uri(name: CpeName) -> str:
    """Bind a WFN to a CPE 2.2 URI (first seven attributes only)."""
    components = [
        name.part,
        _encode_uri_component(name.vendor),
        _encode_uri_component(name.product),
        _encode_uri_component(name.version),
        _encode_uri_component(name.update),
        _encode_uri_component(name.edition),
        _encode_uri_component(name.language),
    ]
    uri = "cpe:/" + ":".join(components)
    return uri.rstrip(":")


def parse_uri(text: str) -> CpeName:
    """Parse a CPE 2.2 URI into a WFN (extended attributes become ANY)."""
    if not text.startswith("cpe:/"):
        raise ValueError(f"not a CPE 2.2 URI: {text!r}")
    components = text[len("cpe:/"):].split(":")
    if not components or components[0] not in ("a", "o", "h"):
        raise ValueError(f"invalid CPE part in URI {text!r}")
    components += [""] * (7 - len(components))
    if len(components) > 7:
        raise ValueError(f"CPE 2.2 URI has too many components: {text!r}")
    values = [_decode_uri_component(component) for component in components[1:7]]
    return CpeName(components[0], *values)


def parse_cpe(text: str) -> CpeName:
    """Parse either binding, dispatching on the prefix."""
    if text.startswith("cpe:2.3:"):
        return parse_formatted_string(text)
    if text.startswith("cpe:/"):
        return parse_uri(text)
    raise ValueError(f"unrecognized CPE binding: {text!r}")
