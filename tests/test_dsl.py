import contextlib
import io
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gpfkit import cli, dsl
from gpfkit.errors import BudgetError, ParseError


def _env(text):
    script = dsl.parse(text)
    env = dsl.Env()
    commands = []
    for stmt in script.statements:
        if isinstance(stmt, dsl.Command):
            commands.append(stmt)
        else:
            env.declare(stmt)
    return env, commands


def test_full_script_parses():
    env, commands = _env(
        """
        # a plain polynomial ring
        ring R = QQ[x,y];
        prime p = (x, y);
        prime q = (x);
        ideal a = p * q^2;
        module M = free(2) / ((x, 0), (0, x));
        submodule N in M = ((y, 0));
        gpf N in M;
        colon N : p in M;
        exists {p, q} in M;
        check-iff a in R;
        """
    )
    assert env.ring_name == "R"
    assert str(env.ring) == "QQ[x,y]"
    assert [c.op for c in commands] == ["gpf", "colon", "exists", "check-iff"]
    prime = env.names["p"][1]
    assert str(prime) == "(x, y)"
    kind, pairs = env.names["a"]
    assert kind == "ideal"
    assert [(str(p), r) for p, r in pairs] == [("(x, y)", 1), ("(x)", 2)]
    kind, (sub, home) = env.names["N"]
    assert kind == "submodule" and home == "M"


def test_quotient_ring_and_finite_field():
    env, _ = _env(
        """
        ring S = F7[u,v] / (u*v);
        prime p = (u);
        """
    )
    assert env.ring.is_quotient
    assert env.ring.field.char == 7


def test_canonical_poly_strings_reparse():
    env, _ = _env("ring R = QQ[x,y];")
    cases = ["x^2 - x*y + 1/2*y", "x*y + 1", "x", "2"]
    for text in cases:
        script = dsl.parse("ring R = QQ[x,y]; prime junk = (%s);" % text)
        probe = dsl.Env()
        for stmt in script.statements:
            probe.declare(stmt)
        back = probe.names["junk"][1].gens[0]
        assert str(back) == text


def test_exponent_zero_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("ring R = QQ[x,y];\nconstruct p^0 in R;")
    assert err.value.line == 2
    assert "exponent must be >= 1" in str(err.value)


def test_unknown_variable_rejected():
    env = dsl.Env()
    script = dsl.parse("ring R = QQ[x,y]; prime p = (z);")
    with pytest.raises(ParseError) as err:
        for stmt in script.statements:
            env.declare(stmt)
    assert "z" in str(err.value)


def test_unknown_name_in_command():
    env, commands = _env("ring R = QQ[x,y];")
    script = dsl.parse("ring R = QQ[x,y]; gpf N in R;")
    env = dsl.Env()
    with pytest.raises(ParseError):
        for stmt in script.statements:
            if isinstance(stmt, dsl.Command):
                env.submodule(stmt.args["sub"], stmt.args["module"], stmt.line, stmt.col)
            else:
                env.declare(stmt)


def test_duplicate_and_second_ring_rejected():
    env = dsl.Env()
    for bad in (
        "ring R = QQ[x,y]; ring S = QQ[u,v];",
        "ring R = QQ[x,y]; prime p = (x); prime p = (y);",
        "ring R = QQ[x,x];",
    ):
        probe = dsl.Env()
        with pytest.raises(ParseError):
            for stmt in dsl.parse(bad).statements:
                probe.declare(stmt)


def test_module_rank_must_be_positive():
    with pytest.raises(ParseError):
        env = dsl.Env()
        for stmt in dsl.parse("ring R = QQ[x]; module M = free(0);").statements:
            env.declare(stmt)


def test_fraction_coefficients_and_zero_denominator():
    env, _ = _env("ring R = QQ[x]; prime p = (1/2*x);")
    with pytest.raises(ParseError):
        probe = dsl.Env()
        for stmt in dsl.parse("ring R = QQ[x]; prime p = (1/0*x);").statements:
            probe.declare(stmt)


def test_item_disambiguation():
    """A parenthesized scalar followed by an operator is a polynomial
    factor, not a one-entry vector."""
    env, _ = _env(
        """
        ring R = QQ[x,y];
        module M = free(2);
        submodule N in M = (((x+y)*y, x), (x^2, 0));
        """
    )
    sub = env.names["N"][1][0]
    ring = env.ring
    x, y = ring.gen(0), ring.gen(1)
    want = env.names["M"][1].span(
        [((x + y) * y, x), (x * x, ring.zero())]
    )
    assert sub.equals(want)


def test_empty_submodule_allowed():
    env, _ = _env(
        """
        ring R = QQ[x,y];
        module M = free(1);
        submodule Z in M = ();
        """
    )
    sub = env.names["Z"][1][0]
    assert sub.is_zero()


def test_candidates_set_registry():
    env, _ = _env(
        """
        ring R = QQ[x,y];
        prime p = (x);
        prime m = (x, y);
        candidates = { p, m };
        """
    )
    assert env.registry is not None
    assert len(list(env.registry)) == 2


def test_target_merges_duplicate_primes():
    env, commands = _env(
        """
        ring R = QQ[x,y];
        prime p = (x, y);
        construct p * p^2 in R;
        """
    )
    cmd = commands[0]
    target = env.target(cmd.args["factors"], cmd.line, cmd.col)
    assert [(str(p), r) for p, r in target.pairs] == [("(x, y)", 3)]


def test_module_name_resolves_to_full_submodule():
    env, commands = _env(
        """
        ring R = QQ[x,y];
        module M = free(1);
        gpf M in M;
        """
    )
    cmd = commands[0]
    sub = env.submodule(cmd.args["sub"], cmd.args["module"], cmd.line, cmd.col)
    module = env.module(cmd.args["module"], cmd.line, cmd.col)
    assert sub.equals(module.full())


def test_parse_field():
    """One parser reads the ring declaration's field and --field."""
    assert str(dsl.parse_field("QQ")) == "QQ"
    assert dsl.parse_field("Fp:7").char == 7
    assert dsl.parse_field("F7").char == 7
    with pytest.raises(ValueError, match=r"unknown coefficient field 'GF\(4\)'"):
        dsl.parse_field("GF(4)")
    with pytest.raises(ValueError, match="4 is not prime"):
        dsl.parse_field("F4")


def test_check_iff_is_one_word_only_at_a_word_boundary():
    """`check-iff` ends at a word boundary: `check-iffp in R;` is the
    unknown statement `check`, a parse error that exits 1, not
    `check-iff p in R;`."""
    text = "ring R = QQ[x]; prime p = (x); check-iffp in R;"
    with pytest.raises(ParseError, match="unknown statement 'check'"):
        dsl.parse(text)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["-"]) == 1
    assert "unknown statement 'check'" in err.getvalue()
    assert dsl.parse(text.replace("iffp", "iff p")).statements[-1].op == "check-iff"


def test_comments_and_whitespace():
    env, commands = _env(
        "ring R = QQ[x]; # trailing comment\n# full line\nass R in R;"
    )
    assert commands[0].op == "ass"


# ---------------------------------------------------------------------------
# parser fuzz over mutated README scripts

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_scripts():
    """The README's script blocks: fenced blocks that declare a ring."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```$", text, re.S | re.M)
    return [b for b in blocks if re.search(r"^ring \w+ = ", b, re.M)]


# pieces a mutation inserts: the language's punctuation and words, digit
# runs, whitespace, and characters the tokenizer does not know
_PIECES = list("(){}[],;=^*+-/:#\n\t ") + [
    "ring", "prime", "in", "free", "check-iff", "check", "-iff", "QQ", "F5",
    "F4", "x", "0", "00", "1/0", "99999999999999999999", "é", "\x00", "٣",
]


@st.composite
def mutated_scripts(draw):
    text = draw(st.sampled_from(_readme_scripts()))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(
            st.sampled_from(
                ["delete", "insert", "replace", "repeat", "nest", "digits", "truncate"]
            )
        )
        piece = draw(st.sampled_from(_PIECES))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + piece + text[i:]
        elif op == "replace":
            text = text[:i] + piece + text[j:]
        elif op == "repeat":
            text = text[:j] + text[i:j] * draw(st.integers(2, 40)) + text[j:]
        elif op == "nest":
            k = draw(st.integers(1, 600))
            text = text[:i] + "(" * k + text[i:j] + ")" * k + text[j:]
        elif op == "digits":
            text = text[:i] + "9" * draw(st.integers(1, 6000)) + text[i:]
        else:
            text = text[:i]
    return text


def test_readme_scripts_parse():
    scripts = _readme_scripts()
    assert len(scripts) == 2
    for text in scripts:
        dsl.parse(text)


@settings(max_examples=300, deadline=None)
@given(mutated_scripts())
def test_mutated_readme_scripts_parse_or_raise_parse_error(text):
    """dsl.parse either succeeds or raises ParseError; on a ParseError the
    command line prints one error line and exits 1, with no traceback."""
    try:
        dsl.parse(text)
    except ParseError:
        pass
    else:
        return
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-", "--json"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_nesting_and_number_length_are_parse_errors():
    """Parentheses nested past MAX_NESTING and numbers past the
    interpreter's digit limit are parse errors, not a RecursionError or
    ValueError; nesting up to the bound still evaluates."""
    deep = "(" * dsl.MAX_NESTING + "x" + ")" * dsl.MAX_NESTING
    env, _ = _env("ring R = QQ[x]; prime p = (%s);" % deep)
    assert str(env.names["p"][1]) == "(x)"
    too_deep = "(" + deep + ")"
    with pytest.raises(ParseError, match="nested too deep"):
        dsl.parse("ring R = QQ[x]; prime p = (%s);" % too_deep)
    with pytest.raises(ParseError, match="too long"):
        dsl.parse("ring R = QQ[x]; prime p = (x^%s);" % ("9" * 5000))


def test_polynomial_exponent_over_the_bound_is_a_budget_error(monkeypatch):
    """An exponent above MAX_EXPONENT fails with BudgetError before any
    multiplication, and the command line exits 2; the bound itself still
    evaluates."""
    monkeypatch.setattr(dsl, "MAX_EXPONENT", 2)
    env, _ = _env("ring R = QQ[x,y]; prime p = ((x+y)^2);")
    assert str(env.names["p"][1]) == "(x^2 + 2*x*y + y^2)"
    with pytest.raises(BudgetError, match="over the bound 2"):
        _env("ring R = QQ[x,y]; prime p = (x^3);")
    out, err = io.StringIO(), io.StringIO()
    text = "ring R = QQ[x,y]; submodule N in R = (x*y^3); gpf N in R;"
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-", "--json"])
    assert code == 2
    assert out.getvalue() == ""
    assert "over the bound 2" in err.getvalue()


def test_product_over_the_term_bound_is_a_budget_error(monkeypatch):
    """A power or a product step whose operands' term counts multiply to
    more than MAX_TERMS fails with BudgetError before it multiplies; the
    bound itself still evaluates."""
    monkeypatch.setattr(dsl, "MAX_TERMS", 4)
    refused = r"product of 3 by 2 terms is over the bound 4 \(dsl\.MAX_TERMS\)"
    env, _ = _env("ring R = QQ[x,y]; prime p = ((x+y)^2 * x);")
    assert str(env.names["p"][1]) == "(x^3 + 2*x^2*y + x*y^2)"
    with pytest.raises(BudgetError, match=refused):
        _env("ring R = QQ[x,y]; prime p = ((x+y)^3);")
    with pytest.raises(BudgetError, match=refused):
        _env("ring R = QQ[x,y]; prime p = ((x+y)^2 * (x+1));")
