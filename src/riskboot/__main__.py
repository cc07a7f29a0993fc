"""The riskboot command line as a module: python -m riskboot estimate ..."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
