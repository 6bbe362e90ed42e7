"""``python -m wrearr``: the same commands as the ``wrearr`` entry point."""

from .cli import run

run()
