"""``python -m betticone``: the same command line as ``betticone``."""

from .cli import main

if __name__ == "__main__":
    main()
