"""``python -m ramseybook``: the ``ramseybook`` command without an install."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
