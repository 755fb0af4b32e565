"""Placeholder: the tests' LP solver lives in ``tests/simplex.py``.

No package module imports this one, and it defines nothing.  It exists only
because perfbench's layer trace imports each traced function's home module
by name, with no guard, so a missing ``besspp.simplex`` would fail every
traced run.  Once that trace skips a module that does not import (ROADMAP
item 1), this file is deleted.
"""
