"""32-bit integer semantics shared by the model interpreter and the CPU.

COMDES guards/actions are evaluated twice in this reproduction: once by the
reference model interpreter and once as compiled bytecode on the virtual
target. Both must agree bit-for-bit, so the wrap/divide rules live here.
The one exception is the CPU's fast loop (:mod:`repro.target.cpu`) and
its block rows (:mod:`repro.target.blocks`), which inline :func:`sdiv` and
:func:`smod` to save a call per divide; ``tests/test_superinstructions.py``
proves them equal to these functions, negative operands and
``INT_MIN / -1`` included.
"""

from __future__ import annotations

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
INT_MIN = -(1 << (WORD_BITS - 1))
INT_MAX = (1 << (WORD_BITS - 1)) - 1


def wrap32(value: int) -> int:
    """Wrap an arbitrary int to signed 32-bit two's complement."""
    value &= WORD_MASK
    if value > INT_MAX:
        value -= 1 << WORD_BITS
    return value


def sdiv(a: int, b: int) -> int:
    """C-style signed division: truncates toward zero (Python '//' floors)."""
    if b == 0:
        raise ZeroDivisionError("signed division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap32(q)


def smod(a: int, b: int) -> int:
    """C-style signed remainder: sign follows the dividend."""
    if b == 0:
        raise ZeroDivisionError("signed modulo by zero")
    return wrap32(a - sdiv(a, b) * b)
