"""End-to-end benchmark of the GCD2 reproduction (see README.md here).

A package only so its modules import as ``e2e.<name>`` — ``trace.py``
would otherwise shadow the standard library's ``trace``.  ``run.py`` is
the one entry point.
"""
