import io
import json
import os
import sys

import pytest

from gpfkit.cli import main

CHAIN = """
ring R = QQ[x,y];
prime p = (x, y);
prime q = (x);
submodule N in R = (x^2, x*y);
gpf N in R;
check-iff p * q in R;
verify N in R;
"""

TWISTED = """
ring R = QQ[x,y,z] / (x*y - z^2, x^2 - y*z);
prime p = (x, z);
prime m = (x, y, z);
prime a = (x, y);
prime b = (y, z);
candidates = { p, m, a, b };
check-iff p^2 in R;
"""


def _run(tmp_path, text, *flags, name="script.gpf"):
    path = tmp_path / name
    path.write_text(text)
    return main([str(path), *flags])


def test_forward_factorization(tmp_path, capsys):
    code = _run(tmp_path, CHAIN)
    out = capsys.readouterr().out
    assert code == 0
    assert "(x) * (x, y)" in out
    assert "verdict" in out


def test_json_stream_is_deterministic(tmp_path, capsys):
    code = _run(tmp_path, CHAIN, "--json")
    first = capsys.readouterr().out
    assert code == 0
    code = _run(tmp_path, CHAIN, "--json")
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert [obj["command"] for obj in lines] == ["gpf", "check-iff", "verify"]
    for obj in lines:
        assert obj["millis"] == 0
        assert set(obj) >= {
            "command",
            "inputs",
            "result",
            "attestations",
            "verification",
            "millis",
        }
    assert lines[0]["result"]["factorization"] == "(x) * (x, y)"
    assert lines[1]["result"]["verdict"] is True
    assert first.splitlines()[2] == (
        '{"attestations": [], "command": "verify", "inputs": {"module": '
        '"free(1)", "submodule": "(x^2, x*y)"}, "millis": 0, "result": {"ok": '
        'true, "steps": [{"checked": ["prime_extension", "maximal", "regular"], '
        '"index": 1, "prime": "(x, y)"}, {"checked": ["prime_extension", '
        '"maximal", "regular"], "index": 2, "prime": "(x)"}]}, "verification": '
        '{"steps": true}}'
    )


def test_timings_flag_fills_millis(tmp_path, capsys):
    code = _run(tmp_path, CHAIN, "--json", "--timings")
    out = capsys.readouterr().out
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(isinstance(o["millis"], int) for o in objs)


def test_false_verdict_still_exits_zero(tmp_path, capsys):
    code = _run(tmp_path, TWISTED, "--json")
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out.strip().splitlines()[-1])
    assert obj["result"]["verdict"] is False
    assert obj["result"]["failed_index"] == 1


def test_parse_error_exit_one(tmp_path, capsys):
    code = _run(tmp_path, "ring R = QQ[x,y];\nconstruct p^0 in R;")
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err
    assert "exponent" in err


def test_unknown_name_exit_one(tmp_path, capsys):
    code = _run(tmp_path, "ring R = QQ[x,y];\ngpf N in R;")
    assert code == 1


def test_verification_failure_exit_two(tmp_path, capsys):
    script = "ring R = QQ[x,y];\nmodule M = free(1);\ngpf M in M;"
    code = _run(tmp_path, script)
    err = capsys.readouterr().err
    assert code == 2
    assert "proper submodule" in err


def test_construct_failure_exit_two(tmp_path, capsys):
    script = TWISTED.replace("check-iff p^2 in R;", "construct p^2 in R;")
    code = _run(tmp_path, script)
    err = capsys.readouterr().err
    assert code == 2
    assert "support condition" in err


def test_linear_prime_prints_no_attestation_note(tmp_path, capsys):
    script = (
        "ring R = QQ[x,y,z];\n"
        "prime p = (x - 1, y - z);\n"
        "prime q = (x - y^2);\n"
        "submodule N in R = (x - 1);\n"
        "colon N : p in R;\n"
        "colon N : q in R;\n"
    )
    assert _run(tmp_path, script, "--json") == 0
    linear, other = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert linear["attestations"] == []
    assert [note.endswith(": assumed") for note in other["attestations"]] == [True]


def test_ideal_product_over_the_bound_exit_two(tmp_path, capsys, monkeypatch):
    """The support condition of m^4 multiplies out m^3, which may have
    C(5, 3) = 10 generators: with the bound at 9 it is refused."""
    from gpfkit import modops

    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 9)
    script = "ring R = QQ[x,y,z];\nprime m = (x, y, z);\nconstruct m^4 in R;"
    code = _run(tmp_path, script)
    err = capsys.readouterr().err
    assert code == 2
    assert "up to 10 generators is over the bound 9" in err


@pytest.mark.parametrize("bound, exit_code", [(9, 2), (10, 0)])
def test_construct_prime_power_meets_the_product_bound(
    tmp_path, capsys, monkeypatch, bound, exit_code
):
    """construct m^3 forms m^3 itself, predicted at C(5, 3) = 10
    generators: refused under a bound of 9, built under a bound of 10."""
    from gpfkit import modops

    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", bound)
    script = "ring R = QQ[x,y,z];\nprime m = (x, y, z);\nconstruct m^3 in R;"
    assert _run(tmp_path, script) == exit_code
    if exit_code:
        assert "up to 10 generators is over the bound 9" in capsys.readouterr().err


def test_check_iff_at_the_product_bound_exit_zero(tmp_path, capsys, monkeypatch):
    """check-iff m^3 multiplies out m^3, predicted at C(5, 3) = 10
    generators, and colons by one m at a time, forming no other product;
    so a bound of 10 admits it."""
    from gpfkit import modops

    monkeypatch.setattr(modops, "MAX_PRODUCT_GENS", 10)
    script = "ring R = QQ[x,y,z];\nprime m = (x, y, z);\ncheck-iff m^3 in R;"
    assert _run(tmp_path, script) == 0
    assert "verdict: True" in capsys.readouterr().out


def test_missing_registry_exit_three(tmp_path, capsys):
    script = "\n".join(
        line
        for line in TWISTED.strip().splitlines()
        if not line.startswith("candidates")
    )
    code = _run(tmp_path, script)
    err = capsys.readouterr().err
    assert code == 3
    assert "candidate registry" in err


def test_candidate_mode_json_bytes_are_pinned(tmp_path, capsys):
    """Over the binomial quotient ring every associated prime is tested
    against the declared candidates, and each document says so."""
    script = TWISTED.replace(
        "check-iff p^2 in R;",
        "submodule N in R = (x^2, x*z, z^2);\nass N in R;\ngpf N in R;\n"
        "verify N in R;",
    )
    code = _run(tmp_path, script, "--json")
    out = capsys.readouterr().out
    assert code == 0
    head = (
        '{"attestations": ["associated primes are relative to the declared '
        'candidate set"], "command": "%s", "inputs": {"module": "free(1)", '
        '"submodule": "(x^2, x*y, x*z, y*z, z^2)"}, "millis": 0, "result": '
    )
    checked = '{"checked": ["prime_extension", "maximal", "regular"], '
    assert out.splitlines() == [
        head % "ass"
        + '{"complete": false, "primes": ["(x, y, z)", "(x, z)"]}, '
        '"verification": {}}',
        head % "gpf"
        + '{"factorization": "(x, y, z) * (x, z)", "factors": [{"exponent": '
        '1, "prime": "(x, y, z)"}, {"exponent": 1, "prime": "(x, z)"}]}, '
        '"verification": {"ass_complete": false, "steps": true}}',
        head % "verify"
        + '{"ok": true, "steps": [' + checked + '"index": 1, "prime": '
        '"(x, y, z)"}, ' + checked + '"index": 2, "prime": "(x, z)"}]}, '
        '"verification": {"steps": true}}',
    ]


def test_field_override(tmp_path, capsys):
    script = "ring R = QQ[x,y];\nsubmodule N in R = (x^2, x*y);\ngpf N in R;"
    code = _run(tmp_path, script, "--field", "Fp:5", "--json")
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out.strip().splitlines()[0])
    assert obj["result"]["factorization"] == "(x) * (x, y)"


def test_bad_field_flag(tmp_path, capsys):
    code = _run(tmp_path, "ring R = QQ[x];", "--field", "F4")
    assert code == 1


def test_oracle_battery(capsys):
    code = main(["--oracle", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True


def test_missing_script_is_usage_error(capsys):
    code = main([])
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("--tie-break", "foo"),
        # no flag sets the step budget, filtration.MAX_STEPS
        ("--max-steps", "abc"),
        ("--max-steps", "0"),
        ("--max-steps", "-3"),
        ("--no-such-flag",),
    ],
    ids=["tie-break", "max-steps-text", "max-steps-zero", "max-steps-negative", "unknown"],
)
def test_bad_flags_are_usage_errors(tmp_path, capsys, flags):
    """argparse errors exit 1, not argparse's 2, before any command runs."""
    path = tmp_path / "script.gpf"
    path.write_text(CHAIN)
    assert main([str(path), "--json", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("value", ["0", "-3", "1", "abc", ""])
def test_max_steps_environment_is_ignored(tmp_path, capsys, monkeypatch, value):
    """gpfkit reads no GPFKIT_MAX_STEPS: whatever its value, a run prints
    the bytes of a run without it."""
    monkeypatch.delenv("GPFKIT_MAX_STEPS", raising=False)
    assert _run(tmp_path, CHAIN, "--json") == 0
    want = capsys.readouterr()
    monkeypatch.setenv("GPFKIT_MAX_STEPS", value)
    assert _run(tmp_path, CHAIN, "--json") == 0
    assert capsys.readouterr() == want


def test_step_budget_refusal_exit_two(tmp_path, capsys, monkeypatch):
    """The gpf of CHAIN takes two filtration steps: refused with exit 2
    under filtration.MAX_STEPS = 1, run under 2."""
    from gpfkit import filtration

    monkeypatch.setattr(filtration, "MAX_STEPS", 1)
    assert _run(tmp_path, CHAIN, "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "within 1 steps" in captured.err
    monkeypatch.setattr(filtration, "MAX_STEPS", 2)
    assert _run(tmp_path, CHAIN, "--json") == 0


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--tie-break" in out
    assert "--max-steps" not in out


def test_tie_break_flag(tmp_path, capsys):
    script = "ring R = QQ[x,y];\nsubmodule N in R = (x*y);\nfiltration N in R;"
    code = _run(tmp_path, script, "--json", "--tie-break", "revlex")
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out.strip().splitlines()[0])
    steps = obj["result"]["steps"]
    assert [s["prime"] for s in steps] == ["(y)", "(x)"]
    code = _run(tmp_path, script, "--json", "--tie-break", "lex")
    out = capsys.readouterr().out
    obj = json.loads(out.strip().splitlines()[0])
    assert [s["prime"] for s in obj["result"]["steps"]] == ["(x)", "(y)"]


CONSTRUCT = """
ring R = QQ[x,y,z];
prime p = (x);
prime q = (y);
prime r = (z);
prime m = (x, y);
prime n = (x, y, z);
module M = free(2) / ((x*y, 0));
construct m^2 * p in M;
construct n * q^2 * r in R;
construct m * r^2 in M;
exists { p, q, r } in M;
"""


def test_construct_output_does_not_depend_on_the_tie_break(tmp_path, capsys):
    """A factorization is unique, so `construct` prints the same bytes
    under either tie-break, and so does `exists`, whose witness is built
    by the same construction."""
    assert _run(tmp_path, CONSTRUCT, "--json", "--tie-break", "lex") == 0
    lex = capsys.readouterr().out
    assert _run(tmp_path, CONSTRUCT, "--json", "--tie-break", "revlex") == 0
    assert capsys.readouterr().out == lex
    assert [json.loads(line)["command"] for line in lex.splitlines()] == [
        "construct"
    ] * 3 + ["exists"]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "flags",
    [(), ("--json",), ("--oracle",), ("--oracle", "--json")],
    ids=["text", "json", "oracle", "oracle-json"],
)
def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys, flags):
    path = tmp_path / "script.gpf"
    path.write_text(CHAIN)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main([str(path), *flags])
    devnull = sys.stdout
    assert devnull.name == os.devnull
    devnull.close()
    assert code == 0
    assert capsys.readouterr().err == ""


REPEATED = """
ring R = QQ[x,y,z];
prime p = (x);
prime m = (x, y, z);
check-iff p * m * p in R;
construct p * m * p^2 in R;
"""


def test_target_merges_repeated_primes(tmp_path, capsys):
    code = _run(tmp_path, REPEATED)
    out = capsys.readouterr().out
    assert code == 0
    assert "check-iff module=free(1) target=(x, y, z) * (x)^2\n" in out
    assert "construct module=free(1) target=(x, y, z) * (x)^3\n" in out


def test_exists_rejects_a_repeated_prime(tmp_path, capsys):
    script = "ring R = QQ[x,y];\nprime p = (x);\nexists { p, p } in R;\n"
    code = _run(tmp_path, script)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: target primes must be distinct\n"


def test_colon_echoes_the_minimal_generators_of_a_product(tmp_path, capsys):
    """r = (x, x*y) prints as (x); the echo of r * q and r^2 is their
    minimal generators too, not the raw pairwise products."""
    script = (
        "ring R = QQ[x,y,z];\n"
        "prime r = (x, x*y);\n"
        "prime q = (y, z);\n"
        "module M = free(2);\n"
        "submodule N in M = ((x^3*y, 0), (0, x*y*z));\n"
        "colon N : r * q in M;\n"
        "colon N : r^2 in M;\n"
    )
    assert _run(tmp_path, script, "--json") == 0
    lines = capsys.readouterr().out.splitlines()
    product, square = [json.loads(line) for line in lines]
    assert product["inputs"]["ideal"] == "(x*y, x*z)"
    assert product["result"]["module"] == "((x^2*y, 0), (0, y*z))"
    assert square["inputs"]["ideal"] == "(x^2)"
    assert square["result"]["module"] == "((x*y, 0), (0, y*z))"


def test_construct_says_when_a_prime_outside_the_support_decides(tmp_path, capsys):
    """Ass(M/N) lies in Supp(M), so a target prime outside Supp(M) proves
    that no submodule has the factorization, and the refusal says so; a
    failure at a prime inside Supp(M) with a later prime inside it
    decides nothing, and the refusal says the question is open."""
    module = "ring R = QQ[x,y,z];\nmodule M = free(2) / ((x, 0), (0, x));\n"
    outside = module + "prime p = (y, z);\nconstruct p^2 in M;\n"
    assert _run(tmp_path, outside) == 2
    assert capsys.readouterr().err == (
        "error: support condition fails at index 1: condition 1 for (y, z) "
        "fails (annihilator element x lies outside the prime); (y, z) lies "
        "outside Supp(M), so no submodule of M has this factorization\n"
    )
    inside = module + "prime p = (x, y);\nprime q = (x);\nconstruct q * p in M;\n"
    assert _run(tmp_path, inside) == 2
    assert capsys.readouterr().err == (
        "error: support condition fails at index 1: condition 1 for (x, y) "
        "fails (the scaled module is zero); the later prime (x) lies inside "
        "(x, y), so the condition is only sufficient and whether a submodule "
        "of M has this factorization is open\n"
    )


def test_construct_refusal_is_a_proof_only_when_localization_decides(
    tmp_path, capsys
):
    """Localized at (x, y), a target with no later prime inside it needs
    (x, y) in Supp((x, y) M); over M = R/(x, y) that module is zero, so
    m^2 is refused with a proof.  Over the direct sum R/(x) + R/(x, y), and
    over (R/(x))^2, the later prime (x) lies inside (x, y), and N = 0,
    respectively N = ((y, 0)), realizes m * p although condition 1 fails,
    so those refusals claim no proof."""
    ring = "ring R = QQ[x,y];\nprime p = (x);\nprime m = (x, y);\n"
    field = ring + "module M = free(1) / ((x), (y));\nconstruct m^2 in M;\n"
    assert _run(tmp_path, field) == 2
    assert capsys.readouterr().err == (
        "error: support condition fails at index 1: condition 1 for (x, y) "
        "fails (the scaled module is zero); no later target prime lies inside "
        "(x, y), so the condition is necessary and no submodule of M has "
        "this factorization\n"
    )
    for module, witness in (
        ("free(2) / ((x, 0), (0, x), (0, y))", "((0, 0))"),
        ("free(2) / ((x, 0), (0, x))", "((y, 0))"),
    ):
        script = ring + (
            "module M = %s;\n"
            "submodule N in M = %s;\n"
            "gpf N in M;\n"
            "construct m * p in M;\n"
        ) % (module, witness)
        assert _run(tmp_path, script) == 2
        captured = capsys.readouterr()
        assert "factorization: (x) * (x, y)\n" in captured.out
        assert captured.err == (
            "error: support condition fails at index 1: condition 1 for (x, y) "
            "fails (the scaled module is zero); the later prime (x) lies inside "
            "(x, y), so the condition is only sufficient and whether a "
            "submodule of M has this factorization is open\n"
        )


def test_buchberger_over_the_pair_budget_exit_two(tmp_path, capsys, monkeypatch):
    """A quotient-ring colon reaches Buchberger; with the pair budget at one
    pair it is refused with exit 2."""
    from gpfkit import clear_caches, groebner

    monkeypatch.setattr(groebner, "MAX_PAIRS", 1)
    clear_caches()
    script = TWISTED.replace("check-iff p^2 in R;", "colon R : p in R;")
    try:
        code = _run(tmp_path, script)
    finally:
        clear_caches()
    assert code == 2
    assert capsys.readouterr().err == "error: Buchberger selected more than 1 pairs\n"


# Every command once, with named and inline operands, a fraction
# coefficient and a named ideal.
ALL_COMMANDS = """
ring R = QQ[x,y];
prime p = (x, y);
prime q = (x);
ideal a = p * q;
module M = free(2) / ((x, 0));
submodule N in M = ((x*y, 0), (0, 1/2*x^2));
gpf N in M;
filtration N in M;
ass N in M;
colon N : a in M;
colon ((0, x^2 + 1/2*x*y)) : (x, y)^2 in M;
exists { q, (y) } in R;
construct a in R;
check-iff p * q in R;
verify N in M;
"""

ALL_COMMANDS_TEXT = """\
gpf module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2))
  factorization: (x)^2
  factors:
    - exponent=2, prime=(x)
  verified: ass_complete=True, steps=True
filtration module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2))
  base: ((x, 0), (0, x^2))
  steps:
    - colon=(N : (x)), index=1, module=((1, 0), (0, x)), prime=(x)
    - colon=(N : (x) * (x)), index=2, module=((1, 0), (0, 1)), prime=(x)
  verified: ass_complete=True, steps=True
ass module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2))
  complete: True
  primes:
    - (x)
colon ideal=(x^2, x*y) module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2))
  module: ((1, 0), (0, x))
colon ideal=(x^2, x*y, y^2) module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2 + 1/2*x*y))
  module: ((x, 0), (0, x^2 + 1/2*x*y))
exists module=free(1) primes=(x), (y)
  conditions:
    - condition 1 for (x) holds
    - condition 2 for (y) holds
  verdict: True
  witness: (x*y)
  verified: witness_factorization=True
construct module=free(1) target=(x, y) * (x)
  submodule: (x^2, x*y)
  verified: factorization=True
check-iff module=free(1) target=(x, y) * (x)
  segments:
    - found=['(x, y)'], index=1, ok=True, prime=(x, y)
    - found=['(x)'], index=2, ok=True, prime=(x)
  steps:
    - colon=(N : (x, y)), index=1, module=(x), prime=(x, y)
    - colon=(N : (x, y) * (x)), index=2, module=(1), prime=(x)
  verdict: True
  verified: steps=True
verify module=free(2) / ((x, 0)) submodule=((x, 0), (0, x^2))
  ok: True
  steps:
    - checked=['prime_extension', 'maximal', 'regular'], index=1, prime=(x)
    - checked=['prime_extension', 'maximal', 'regular'], index=2, prime=(x)
  verified: steps=True
"""


def test_all_commands_text_bytes_are_pinned(tmp_path, capsys):
    assert _run(tmp_path, ALL_COMMANDS) == 0
    assert capsys.readouterr() == (ALL_COMMANDS_TEXT, "")


def test_all_commands_json_bytes_are_pinned(tmp_path, capsys):
    assert _run(tmp_path, ALL_COMMANDS, "--json") == 0
    out, err = capsys.readouterr()
    assert err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert out == "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
    M = "free(2) / ((x, 0))"
    on_N = {"module": M, "submodule": "((x, 0), (0, x^2))"}
    target = {"module": "free(1)", "target": "(x, y) * (x)"}
    x_chain = [
        {"colon": "(N : (x))", "index": 1, "module": "((1, 0), (0, x))", "prime": "(x)"},
        {"colon": "(N : (x) * (x))", "index": 2, "module": "((1, 0), (0, 1))", "prime": "(x)"},
    ]
    checked = ["prime_extension", "maximal", "regular"]
    results = [
        (
            "gpf",
            on_N,
            {"factorization": "(x)^2", "factors": [{"exponent": 2, "prime": "(x)"}]},
            {"ass_complete": True, "steps": True},
        ),
        (
            "filtration",
            on_N,
            {"base": "((x, 0), (0, x^2))", "steps": x_chain},
            {"ass_complete": True, "steps": True},
        ),
        ("ass", on_N, {"complete": True, "primes": ["(x)"]}, {}),
        ("colon", dict(on_N, ideal="(x^2, x*y)"), {"module": "((1, 0), (0, x))"}, {}),
        (
            "colon",
            {"ideal": "(x^2, x*y, y^2)", "module": M, "submodule": "((x, 0), (0, x^2 + 1/2*x*y))"},
            {"module": "((x, 0), (0, x^2 + 1/2*x*y))"},
            {},
        ),
        (
            "exists",
            {"module": "free(1)", "primes": "(x), (y)"},
            {
                "conditions": ["condition 1 for (x) holds", "condition 2 for (y) holds"],
                "verdict": True,
                "witness": "(x*y)",
            },
            {"witness_factorization": True},
        ),
        ("construct", target, {"submodule": "(x^2, x*y)"}, {"factorization": True}),
        (
            "check-iff",
            target,
            {
                "segments": [
                    {"found": ["(x, y)"], "index": 1, "ok": True, "prime": "(x, y)"},
                    {"found": ["(x)"], "index": 2, "ok": True, "prime": "(x)"},
                ],
                "steps": [
                    {"colon": "(N : (x, y))", "index": 1, "module": "(x)", "prime": "(x, y)"},
                    {"colon": "(N : (x, y) * (x))", "index": 2, "module": "(1)", "prime": "(x)"},
                ],
                "verdict": True,
            },
            {"steps": True},
        ),
        (
            "verify",
            on_N,
            {
                "ok": True,
                "steps": [
                    {"checked": checked, "index": 1, "prime": "(x)"},
                    {"checked": checked, "index": 2, "prime": "(x)"},
                ],
            },
            {"steps": True},
        ),
    ]
    assert docs == [
        {
            "attestations": [],
            "command": command,
            "inputs": inputs,
            "millis": 0,
            "result": result,
            "verification": verification,
        }
        for command, inputs, result, verification in results
    ]


@pytest.mark.parametrize(
    "script, err",
    [
        (
            "ring R = QQ[x,y];\nsubmodule N in R = (x^2, x*y;\n",
            "line 2, col 29: expected ')', found ';'",
        ),
        ("ring R = QQ[x,y];\ngpf N in R;\n", "line 2, col 1: unknown submodule 'N'"),
        (
            "ring R = QQ[x,y];\nmodule M = free(2);\nsubmodule N in M = ((x, y, 1));\n",
            "line 3, col 21: expected a vector of 2 entries, got 3",
        ),
        ("ring R = F4[x,y];\n", "line 1, col 1: 4 is not prime"),
        (
            "ring R = QQ[x,y];\nprime p = (x);\nideal p = (y);\n",
            "line 3, col 1: name 'p' is already declared",
        ),
        ("ring R = QQ[x,y,x];\n", "line 1, col 1: duplicate variable 'x'"),
        (
            "ring R = QQ[x,y];\nprime p = (x);\ngpf p in p;\n",
            "line 3, col 1: unknown module 'p'",
        ),
    ],
    ids=[
        "unclosed-list",
        "unknown-submodule",
        "vector-length",
        "field-F4",
        "repeated-name",
        "duplicate-variable",
        "prime-as-module",
    ],
)
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_script_errors_are_pinned(tmp_path, capsys, script, err, flags):
    assert _run(tmp_path, script, *flags) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % err)
