"""``python -m cems``: the command line front end, as the ``cems`` script."""
from .cli import console_main

if __name__ == "__main__":
    console_main()
