"""``python -m polyspec``: the command line without an installed script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
