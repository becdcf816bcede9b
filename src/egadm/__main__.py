"""``python -m egadm``: the command-line front end of ``egadm.cli``."""
from .cli import app

app()
