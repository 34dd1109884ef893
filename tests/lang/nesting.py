"""Programs nested to an exact depth, in the shapes the parser bound counts.

The body statement is level 1.  Each ``if``/``begin`` inside it, each
parenthesis and each binary operator of a chain adds one level.
"""

SHAPES = ("if", "begin", "paren", "chain")


def nested_program(shape: str, levels: int) -> str:
    """Source of a program whose body is ``levels`` deep in ``shape``."""
    inner = levels - 1
    body = {
        "if": "if h = 0 then " * inner + "x := 1",
        "begin": "begin " * inner + "x := h" + " end" * inner,
        "paren": "x := " + "(" * inner + "h" + ")" * inner,
        "chain": "x := h" + " + h" * inner,
    }[shape]
    return f"var x, h : integer;\n{body}\n"
