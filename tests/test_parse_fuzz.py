"""Every parser of concrete syntax either rejects a text with a ParseError
or returns a value that renders to text it reads back as the same value."""

from hypothesis import example, given, settings, strategies as st

from apg.adt import parse_id, parse_type, render_id, render_type
from apg.errors import ParseError
from apg.migrate import parse_term, render_term

TOKENS = ["x", "a", "Integer", "String", "Double", "fst", "snd", "inl", "inr", "phi",
          "case", "of", "{", "}", "->", ";", "(", ")", ",", "()", "0", "1", "-1.5", "01",
          "2e3", "1e999", "-1e999", "NaN", "Infinity", "-Infinity", '"hi"', '"\\x"', "true",
          "null", "+", "*", "⊤", "E:", "L:", "R:", "C:", ":", "=", "@", " "]
LABELS = {"a", "x", "⊤", "L:a", "(a,⊤)"}
PARSERS = [(parse_term, render_term),
           (lambda text: parse_type(text, LABELS), render_type),
           (parse_id, render_id)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=10).map("".join))
@example("x 1e999")
@example("E:a:Double=NaN")
@example("E:a:Double=-Infinity")
@example("E:a:Double=1e999")
def test_parsed_text_renders_and_parses_back(text):
    for parse, render in PARSERS:
        try:
            value = parse(text)
        except ParseError:
            continue
        assert parse(render(value)) == value, (text, value)
