"""Tests for the guard/action expression AST."""

import pytest

from repro.comdes.expr import (
    Binary, Unary,
    band, bor, const, eq, ge, gt, le, lnot, lt, maximum, minimum, ne, var,
)
from repro.errors import ModelError
from repro.util.intmath import INT_MAX, INT_MIN


class TestEvaluation:
    def test_const(self):
        assert const(5).eval({}) == 5

    def test_const_wraps_to_32_bits(self):
        assert const(INT_MAX + 1).eval({}) == INT_MIN

    def test_var_reads_env(self):
        assert var("x").eval({"x": 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(ModelError):
            var("x").eval({})

    def test_arithmetic_sugar(self):
        e = (var("a") + const(3)) * var("b") - const(1)
        assert e.eval({"a": 2, "b": 4}) == 19

    def test_int_literal_coerced_in_sugar(self):
        assert (var("a") + 3).eval({"a": 1}) == 4

    def test_division_truncates_toward_zero(self):
        assert (const(-7) // const(2)).eval({}) == -3

    def test_mod_sign_follows_dividend(self):
        assert (const(-7) % const(2)).eval({}) == -1

    def test_negation(self):
        assert (-var("x")).eval({"x": 5}) == -5

    def test_addition_wraps(self):
        assert (const(INT_MAX) + const(1)).eval({}) == INT_MIN

    def test_comparisons_return_0_or_1(self):
        env = {"a": 3, "b": 5}
        assert eq(var("a"), 3).eval(env) == 1
        assert ne(var("a"), 3).eval(env) == 0
        assert lt(var("a"), var("b")).eval(env) == 1
        assert le(3, 3).eval({}) == 1
        assert gt(var("b"), var("a")).eval(env) == 1
        assert ge(2, 3).eval({}) == 0

    def test_logic_operators(self):
        assert band(1, 1).eval({}) == 1
        assert band(1, 0).eval({}) == 0
        assert bor(0, 0).eval({}) == 0
        assert bor(0, 5).eval({}) == 1   # any non-zero is true
        assert lnot(0).eval({}) == 1
        assert lnot(3).eval({}) == 0

    def test_min_max(self):
        assert minimum(3, 5).eval({}) == 3
        assert maximum(3, 5).eval({}) == 5
        assert minimum(-2, -7).eval({}) == -7


class TestStructure:
    def test_free_vars_in_first_use_order(self):
        e = var("b") + var("a") + var("b")
        assert e.free_vars() == ("b", "a")

    def test_const_has_no_free_vars(self):
        assert const(1).free_vars() == ()

    def test_walk_visits_all_nodes(self):
        e = (var("a") + 1) * var("b")
        kinds = [type(n).__name__ for n in e.walk()]
        assert kinds.count("Binary") == 2
        assert kinds.count("Var") == 2
        assert kinds.count("Const") == 1

    def test_unknown_operator_rejected(self):
        with pytest.raises(ModelError):
            Binary("xor", const(1), const(2))
        with pytest.raises(ModelError):
            Unary("abs", const(1))

    def test_bad_operand_rejected(self):
        with pytest.raises(ModelError):
            var("a") + "three"

    def test_repr_is_readable(self):
        assert repr(lt(var("t"), 3)) == "(t lt 3)"
