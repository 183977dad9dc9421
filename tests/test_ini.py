"""The INI reader of ``beamdiv.config`` against the standard library's ``configparser``.

Inside the reader's grammar (module docstring of ``beamdiv.config``) the two
give the same ``{section: {key: value}}``; outside it the reader raises a
``ConfigError`` naming the file and the line, where ``configparser`` may
accept the text and read something else.
"""

import configparser
import os
import re
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from beamdiv.config import ConfigError, _read_sections, load_config

_NAME = hs.text("abcXYZ_019", min_size=1, max_size=8)
_SPACE = hs.sampled_from(["", " ", "  ", "\t"])
_INDENT = hs.sampled_from([" ", "  ", "    ", "\t"])
_COMMENT = hs.builds(lambda indent, mark, text: indent + mark + text,
                     hs.sampled_from(["", "  "]), hs.sampled_from("#;"), hs.text("ab %=:[]#", max_size=6))
_BLANK = hs.sampled_from(["", " ", "\t"])
# Value text: no '%', no line break; '=', ':', '#', ';' and brackets are plain text after the delimiter.
_VALUE = hs.text("abZ019.-+e, =:#;[]", max_size=12)
_CONTINUATION = hs.builds(lambda indent, head, tail: indent + head + tail,
                          _INDENT, hs.sampled_from("0123456789abcXYZ.,-=:[]"), _VALUE)


@hs.composite
def _key_block(draw, key):
    """One key line, then its continuation lines, with blank and comment lines among them."""
    lines = [key + draw(_SPACE) + draw(hs.sampled_from("=:")) + draw(_SPACE)
             + draw(_VALUE) + draw(_SPACE)]
    for _ in range(draw(hs.integers(0, 2))):
        lines += draw(hs.lists(hs.one_of(_BLANK, _COMMENT), max_size=2))
        lines.append(draw(_CONTINUATION))
    lines += draw(hs.lists(hs.one_of(_BLANK, _COMMENT), max_size=2))
    return lines


@hs.composite
def _ini_text(draw):
    """A file inside the grammar: unique sections, keys unique after lowercasing, in mixed case."""
    lines = draw(hs.lists(hs.one_of(_BLANK, _COMMENT), max_size=2))
    for section in draw(hs.lists(_NAME, max_size=4, unique=True)):  # never DEFAULT: no D, E, F, U, L or T
        lines.append(f"[{section}]" + draw(_SPACE))
        lines += draw(hs.lists(hs.one_of(_BLANK, _COMMENT), max_size=2))
        keys = draw(hs.lists(_NAME, max_size=5, unique_by=str.lower))
        for key in keys:
            lines += draw(_key_block(key))
    ending = draw(hs.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(hs.sampled_from(["", ending]))


def _read(text: str) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "run.ini")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return _read_sections(path)


@given(_ini_text())
def test_reader_equals_configparser_inside_the_grammar(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    assert _read(text) == {s: dict(cp.items(s)) for s in cp.sections()}


def test_a_ladder_over_several_lines_is_one_value(tmp_path):
    path = tmp_path / "ladder.ini"
    path.write_text("[policy]\nrate_ladder_bps = 1e9,\n    2.5e9,\n\n    10e9\n")
    assert _read_sections(str(path)) == {"policy": {"rate_ladder_bps": "1e9,\n2.5e9,\n\n10e9"}}
    assert load_config(str(path)).policy.rate_ladder_bps == (1e9, 2.5e9, 10e9)


# Files that configparser reads, into the sections shown, and the reader
# rejects at the line shown: DEFAULT keys leak into every section, '%(key)s'
# is replaced, text after ']' is dropped, and an indented first key is a key.
NARROWINGS = {
    "default_section": ("[DEFAULT]\nseed = 3\n[run]\n", {"run": {"seed": "3"}}, 1, "[DEFAULT]"),
    "interpolation": ("[run]\nbase = 3\nseed = %(base)s\n", {"run": {"base": "3", "seed": "3"}}, 3, "'%'"),
    "percent_escape": ("[run]\nseed = 3%%\n", {"run": {"seed": "3%"}}, 2, "'%'"),
    "text_after_header": ("[link]\n[run] seed = 3\n", {"link": {}, "run": {}}, 2, "after the ']'"),
    "indented_key": ("[run]\n  seed = 3\n", {"run": {"seed": "3"}}, 2, "continues no key"),
}
# Files that configparser rejects too.
ERRORS = {
    "key_before_header": ("# design\nseed = 3\n", 2, "before the first [section]"),
    "no_delimiter": ("[run]\nseed 3\n", 2, "'key = value'"),
    "empty_key": ("[run]\n= 3\n", 2, "empty key"),
    "repeated_section": ("[run]\nseed = 1\n\n[run]\n", 4, "section [run] repeated"),
    "repeated_key": ("[run]\nSeed = 1\nseed: 2\n", 3, "key 'seed' repeated"),
    "empty_header": ("[]\n", 1, "'[name]'"),
    "unclosed_header": ("[run\n", 1, "'[name]'"),
}


@pytest.mark.parametrize("text,read,line,named", list(NARROWINGS.values()), ids=list(NARROWINGS))
def test_narrowing_is_an_error_naming_file_and_line(text, read, line, named, tmp_path):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    assert {s: dict(cp.items(s)) for s in cp.sections()} == read
    _assert_rejected(text, line, named, tmp_path)


@pytest.mark.parametrize("text,line,named", list(ERRORS.values()), ids=list(ERRORS))
def test_malformed_line_is_an_error_naming_file_and_line(text, line, named, tmp_path):
    with pytest.raises(configparser.Error):
        configparser.ConfigParser().read_string(text)
    _assert_rejected(text, line, named, tmp_path)


def _assert_rejected(text, line, named, tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^malformed config file {re.escape(str(path))}, line {line}: ") as info:
        _read_sections(str(path))
    assert named in str(info.value)

