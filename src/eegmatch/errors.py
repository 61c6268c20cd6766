"""Exception types shared across the pipeline, and the refusal of malformed input files by name."""

import struct
import typing
from contextlib import contextmanager
from pathlib import Path

import yaml

# libyaml's parser where PyYAML was built with it: a cell stamp and the phoneme
# inventory parse about 6x and 8x faster than with the pure-Python parser.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class EegMatchError(ValueError):
    """Base class for all pipeline errors."""


class InvalidInputError(EegMatchError):
    """Input data violates a precondition (shape, emptiness, channel count)."""


class InvalidSpecError(EegMatchError):
    """A configuration object is inconsistent with the data it is applied to."""


class SampleRateMismatchError(EegMatchError):
    """Two streams or a stream and its filter disagree on sampling rate."""


class DegenerateChannelError(EegMatchError):
    """A channel is constant where nonzero variance is required."""


class UnknownLabelError(EegMatchError):
    """An alignment label is missing from the declared inventory."""


class TrainingDivergedError(EegMatchError):
    """Loss became non-finite during optimization."""


class DegenerateSampleError(EegMatchError):
    """A statistical sample is degenerate (e.g. all paired differences zero)."""


@contextmanager
def refused_as(source: str | Path):
    """Refusals raised inside the block, named by ``source``: a file, a block of one or a recording.

    A wrong type or value, YAML that does not parse or a binary field cut short is refused too.
    """
    try:
        yield
    except EegMatchError as exc:
        raise type(exc)(f"{source}: {exc}") from None
    except (TypeError, ValueError, struct.error, yaml.YAMLError) as exc:
        raise InvalidInputError(f"{source}: {exc}") from None


def check_keys(raw, required: tuple[str, ...], optional: tuple[str, ...] | None = None,
               where: str = "") -> dict:
    """``raw``, refused unless it is a mapping that holds every ``required`` key.

    With ``optional`` given, it holds no other key. ``where`` names the mapping in its file.
    """
    at = f"{where}: " if where else ""
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{at}not a mapping")
    for key in required:
        if key not in raw:
            raise InvalidInputError(f"{at}no {key!r} key")
    if optional is not None:
        unknown = [repr(key) for key in raw if key not in required + optional]
        if unknown:
            raise InvalidInputError(f"{at}unknown key(s) {', '.join(unknown)}")
    return raw


def check_types(cls, raw: dict) -> dict:
    """``raw``, refused where it gives an ``int`` field of the dataclass ``cls`` anything but an
    int, or a ``float`` field anything but an int or a float. A bool is neither.
    """
    hints = typing.get_type_hints(cls)
    for key, value in check_keys(raw, ()).items():
        kinds = {int: (int,), float: (int, float)}.get(hints.get(key))
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            want = "an integer" if hints[key] is int else "a number"
            raise InvalidInputError(f"{key!r} must be {want}, got {type(value).__name__} {value!r}")
    return raw


def read_yaml(path: str | Path, required: tuple[str, ...],
              optional: tuple[str, ...] | None = None) -> dict:
    """The mapping in the YAML file ``path`` as :func:`check_keys` passes it, else refused by name.

    A missing file raises ``FileNotFoundError``.
    """
    with open(path, "r", encoding="utf-8") as fh, refused_as(path):
        return check_keys(yaml.load(fh, Loader=_SafeLoader), required, optional)
