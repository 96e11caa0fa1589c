"""CPE WFN model and bindings."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpe import (
    ANY,
    NA,
    CpeName,
    bind_to_formatted_string,
    bind_to_uri,
    parse_cpe,
    parse_formatted_string,
    parse_uri,
)
from repro.cpe.wfn import _split_fs, _unbind_fs_value


class TestWfn:
    def test_minimal_name(self):
        name = CpeName("a", "microsoft", "windows")
        assert name.vendor == "microsoft"
        assert name.version is ANY

    def test_rejects_bad_part(self):
        with pytest.raises(ValueError, match="part"):
            CpeName("x", "microsoft", "windows")

    def test_rejects_uppercase_attribute(self):
        with pytest.raises(ValueError, match="lowercase"):
            CpeName("a", "Microsoft", "windows")

    def test_rejects_empty_attribute(self):
        with pytest.raises(ValueError, match="empty"):
            CpeName("a", "", "windows")

    def test_with_names_replaces_vendor(self):
        name = CpeName("a", "microsft", "windows", version="8.1")
        fixed = name.with_names(vendor="microsoft")
        assert fixed.vendor == "microsoft"
        assert fixed.product == "windows"
        assert fixed.version == "8.1"

    def test_with_names_replaces_product_only(self):
        name = CpeName("a", "microsoft", "ie")
        fixed = name.with_names(product="internet_explorer")
        assert fixed.vendor == "microsoft"
        assert fixed.product == "internet_explorer"

    def test_attributes_ordering(self):
        keys = list(CpeName("a", "v", "p").attributes())
        assert keys[:4] == ["part", "vendor", "product", "version"]


class TestFormattedString:
    def test_bind_basic(self):
        name = CpeName("a", "microsoft", "windows", version="8.1")
        assert (
            bind_to_formatted_string(name)
            == "cpe:2.3:a:microsoft:windows:8.1:*:*:*:*:*:*:*"
        )

    def test_bind_escapes_specials(self):
        name = CpeName("a", "avast!", "antivirus")
        assert "avast\\!" in bind_to_formatted_string(name)

    def test_parse_basic(self):
        name = parse_formatted_string("cpe:2.3:a:microsoft:windows:8.1:*:*:*:*:*:*:*")
        assert name.vendor == "microsoft"
        assert name.version == "8.1"
        assert name.update is ANY

    def test_parse_na_value(self):
        name = parse_formatted_string("cpe:2.3:a:vendor:product:-:*:*:*:*:*:*:*")
        assert name.version is NA

    def test_round_trip_with_escapes(self):
        original = CpeName("a", "nginx.inc", "node.js", version="1.2.3")
        assert parse_formatted_string(bind_to_formatted_string(original)) == original

    def test_parse_rejects_wrong_component_count(self):
        with pytest.raises(ValueError, match="11 components"):
            parse_formatted_string("cpe:2.3:a:vendor:product")

    def test_parse_rejects_wrong_prefix(self):
        with pytest.raises(ValueError, match="not a CPE 2.3"):
            parse_formatted_string("cpe:/a:vendor:product")

    def test_escaped_colon_does_not_split(self):
        name = CpeName("a", "vendor", "one:two")
        bound = bind_to_formatted_string(name)
        assert parse_formatted_string(bound).product == "one:two"


class TestUri:
    def test_bind_basic(self):
        name = CpeName("a", "microsoft", "windows", version="8.1")
        assert bind_to_uri(name) == "cpe:/a:microsoft:windows:8.1"

    def test_bind_percent_encodes(self):
        name = CpeName("a", "joomla!", "joomla")
        assert bind_to_uri(name) == "cpe:/a:joomla%21:joomla"

    def test_parse_basic(self):
        name = parse_uri("cpe:/a:microsoft:windows:8.1")
        assert name.vendor == "microsoft"
        assert name.version == "8.1"

    def test_parse_percent_decodes(self):
        assert parse_uri("cpe:/a:joomla%21:joomla").vendor == "joomla!"

    def test_round_trip(self):
        original = CpeName("o", "linux", "linux_kernel", version="4.4")
        assert parse_uri(bind_to_uri(original)) == original

    def test_parse_rejects_bad_part(self):
        with pytest.raises(ValueError, match="part"):
            parse_uri("cpe:/z:vendor:product")

    def test_parse_rejects_too_many_components(self):
        with pytest.raises(ValueError, match="too many"):
            parse_uri("cpe:/a:v:p:1:2:3:4:5")


class TestParseDispatch:
    def test_dispatches_both_bindings(self):
        assert parse_cpe("cpe:/a:x:y").vendor == "x"
        assert parse_cpe("cpe:2.3:a:x:y:*:*:*:*:*:*:*:*").vendor == "x"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_cpe("not-a-cpe")


def reference_split_fs(text: str) -> list[str]:
    """Per-character split on unescaped colons: the oracle for
    ``_split_fs`` and its escape-free fast path."""
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


def reference_unbind_fs_value(text: str):
    """Always-unescape unbinding: the oracle for ``_unbind_fs_value``."""
    if text == "*":
        return ANY
    if text == "-":
        return NA
    return re.sub(r"\\(.)", r"\1", text).lower()


# Raw characters NVD names use, plus escape sequences of the specials
# (and a stray backslash-newline, which the unescape regex leaves alone).
fs_raw = st.sampled_from(list("abcXYZ019._-"))
fs_escaped = st.sampled_from(["\\:", "\\\\", "\\*", "\\!", "\\/", "\\ ", "\\\n"])
fs_value = st.one_of(
    st.just("*"),
    st.just("-"),
    st.lists(fs_raw, min_size=1, max_size=8).map("".join),
    st.lists(st.one_of(fs_raw, fs_escaped), min_size=1, max_size=8).map("".join),
)
fs_body = st.tuples(
    st.sampled_from(["a", "o", "h", "x"]), st.lists(fs_value, min_size=10, max_size=10)
).map(lambda parts: ":".join([parts[0], *parts[1]]))


class TestFormattedStringFastPathOracle:
    @given(fs_body)
    @settings(max_examples=300)
    def test_split_matches_reference_on_cpe_strings(self, body):
        assert _split_fs(body) == reference_split_fs(body)

    @given(st.text(alphabet="ab:\\*-", max_size=30))
    def test_split_matches_reference_on_any_text(self, text):
        assert _split_fs(text) == reference_split_fs(text)

    @given(fs_value)
    def test_unbind_matches_reference(self, value):
        assert _unbind_fs_value(value) == reference_unbind_fs_value(value)

    @given(fs_body)
    def test_parse_agrees_with_reference_components(self, body):
        text = "cpe:2.3:" + body
        components = reference_split_fs(body)
        try:
            expected = CpeName(
                components[0],
                *(reference_unbind_fs_value(c) for c in components[1:]),
            )
        except (TypeError, ValueError) as error:
            with pytest.raises(type(error)):
                parse_formatted_string(text)
        else:
            assert parse_formatted_string(text) == expected
