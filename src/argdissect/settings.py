"""Run settings declared once, as dataclass fields.

A setting's name, default, type and allowed values live on its field of
``RunConfig``, ``TrainConfig`` or ``SynthConfig``; the command line, config
files, manifests and model files derive theirs from ``dataclasses.fields``.
``choice`` declares a field with allowed values and ``check_choices``
enforces them; ``from_text`` reads a value written as text.
"""

from __future__ import annotations

from dataclasses import field, fields

_TRUE_WORDS = ("1", "true", "yes")
_FALSE_WORDS = ("0", "false", "no")


def choice(default, choices):
    """A dataclass field whose value must be one of ``choices``."""
    return field(default=default, metadata={"choices": tuple(choices)})


def check_choices(config) -> None:
    """Raise ValueError when a ``choice`` field holds a value outside its choices."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ValueError(f"unknown {f.name}: {value}")


def from_text(text: str, like):
    """``text`` read as a value of the type of ``like``, the field's default.

    Tuples are comma-separated; booleans accept 1/true/yes and 0/false/no
    in any case.  Raises ValueError for text of another form.
    """
    if isinstance(like, bool):
        word = text.strip().lower()
        if word not in _TRUE_WORDS + _FALSE_WORDS:
            raise ValueError(f"not a boolean: {text!r}")
        return word in _TRUE_WORDS
    if isinstance(like, tuple):
        return tuple(part for part in text.split(",") if part)
    return type(like)(text)
