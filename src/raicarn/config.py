"""Pipeline configuration file: INI-style sections supplying settings to
the subcommands that take ``--config`` ([ica] to ``ica``, [null] to
``raicarn``, [mixture] to ``mixture``). A section's keys and their types
are the fields of its config class, less ``seed``, which only the
``--seed`` flag sets. Unknown sections or keys and values of the wrong
type are rejected at parse time; bounds are checked by the config class
when the subcommand that reads the section builds it."""

import configparser
import dataclasses

from .errors import IoFailureError
from .ica import IcaConfig
from .mixture import MixtureConfig
from .null import NullConfig

SECTION_KEYS = {
    section: {f.name: f.type for f in dataclasses.fields(cls) if f.name != "seed"}
    for section, cls in (("ica", IcaConfig), ("null", NullConfig), ("mixture", MixtureConfig))
}


def load_pipeline_config(path) -> dict:
    """``{section: {key: value}}`` with every known section present (empty
    when the file leaves it out)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise IoFailureError(str(e)) from e
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e

    out = {name: {} for name in SECTION_KEYS}
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTION_KEYS[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                out[section][key] = SECTION_KEYS[section][key](raw)
            except ValueError as e:
                raise ValueError(f"{path}: bad value for {section}.{key}: {raw!r}") from e
    return out
