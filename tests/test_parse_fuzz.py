"""Property tests of the code-file parser: round trips, and arbitrary or
damaged input that must end in a code or a CodeFileError, never a crash."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from ghwkit.cli import CodeFileError, main, parse_code_file, serialize_code
from ghwkit.code import CodeValidationError, LinearCode
from ghwkit.constructions import field_for_order

ORDERS = (2, 3, 4, 8, 9, 13)
# Tokens that sit near the parser's branches: headers, the modulus keyword,
# signs, bounds of the entry range, and strings int() accepts or refuses.
GARBAGE = ("q", "n", "k", "modulus", "#", "0", "1", "-1", "2", "16", "65536",
           "65537", "99999999999999999999", "x", "1.5", "1e3", "0x1", "+1", "1_0",
           "٣", "", " ", "q 4 modulus 1 1 1", "\n", "\r\n")


@st.composite
def codes(draw):
    field = field_for_order(draw(st.sampled_from(ORDERS)))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n),
                         min_size=1, max_size=n))
    try:
        return LinearCode(field, rows)
    except CodeValidationError:
        return LinearCode(field, [[1] * n])


@st.composite
def damaged_files(draw):
    """A valid code file with tokens dropped, duplicated or replaced."""
    lines = [line.split() for line in serialize_code(draw(codes())).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i]
        j = draw(st.integers(0, max(len(tokens) - 1, 0)))
        action = draw(st.sampled_from(("drop", "duplicate", "garble", "drop_line")))
        if action == "drop_line":
            del lines[i]
            if not lines:
                break
        elif not tokens:
            tokens.append(draw(st.sampled_from(GARBAGE)))
        elif action == "drop":
            del tokens[j]
        elif action == "duplicate":
            tokens.insert(j, tokens[j])
        else:
            tokens[j] = draw(st.one_of(st.sampled_from(GARBAGE), st.text(max_size=6)))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def parses_or_refuses(text):
    try:
        return parse_code_file(text)
    except CodeFileError:
        return None


@settings(max_examples=150, deadline=None)
@given(codes())
def test_serialize_then_parse_gives_the_code_back(code):
    again = parse_code_file(serialize_code(code))
    assert again == code and again.field == code.field


# Comment text: anything that does not end the line.
COMMENT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=10)


@settings(max_examples=150, deadline=None)
@given(codes(), st.data())
def test_comments_after_any_line_are_ignored(code, data):
    lines = serialize_code(code).splitlines()
    for i in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
        lines[i] += data.draw(st.sampled_from(("#", " #", "\t# "))) + data.draw(COMMENT)
    again = parse_code_file("\n".join(lines) + "\n")
    assert again == code and again.field == code.field


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_arbitrary_text_parses_or_is_refused(text):
    result = parses_or_refuses(text)
    assert result is None or isinstance(result, LinearCode)


@settings(max_examples=300, deadline=None)
@given(damaged_files())
def test_damaged_file_parses_or_is_refused(text):
    result = parses_or_refuses(text)
    assert result is None or isinstance(result, LinearCode)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(damaged_files(), st.text(max_size=40)))
def test_analyze_exits_with_a_code_on_damaged_files(text, tmp_path):
    path = tmp_path / "fuzz.code"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        rc = main(["analyze", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
