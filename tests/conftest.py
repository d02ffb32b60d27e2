"""Pytest setup shared by every test module.

pytest rewrites the asserts of test modules only; registering
``support`` keeps its reference checks when the tests run under
``python -O``.
"""

import pytest

pytest.register_assert_rewrite("support")
