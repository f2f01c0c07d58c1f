"""The text the writer gives a class or profile, as one string, for tests
that compare or edit whole files."""

from effcone.writer import write_json


def json_text(item) -> str:
    """The text :func:`write_json` writes, as one string."""
    parts: list = []
    write_json(item, parts.append)
    return "".join(parts)
