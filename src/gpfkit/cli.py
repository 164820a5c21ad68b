"""Command line front end: run scripts, emit text or JSON result streams.

Exit codes: 0 when every command ran (false verdicts are still
successes), 1 for usage, parse or semantic errors, 2 for verification,
construction or budget failures, 3 when an associated-prime enumeration
against a declared candidate set came back empty.

JSON mode prints one document per command with stable key order, and
reports `millis: 0` unless --timings is given, so identical inputs give
byte-identical output.  A reader that closes stdout early ends the run
quietly with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import dsl
from .errors import (
    GpfError,
    IncompleteRegistryError,
    ParseError,
)
from .filtration import require_ok, rpe_filtration, verify_rpe
from .gpf import (
    PrimeMultiset,
    check_iff_criterion,
    construct_general,
    exists_incomparable,
)
from .modops import colon_module
from .primes import ATTEST_LINEAR, MONOMIAL, ass_enumerate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_REGISTRY = 3


def _fmt_vector(vec):
    if len(vec) == 1:
        return str(vec[0])
    return "(%s)" % ", ".join(str(p) for p in vec)


def _fmt_sub(sub):
    vecs = sub.canonical()
    if not vecs:
        return "(0)"
    return "(%s)" % ", ".join(_fmt_vector(v) for v in vecs)


def _fmt_module(q):
    base = "free(%d)" % q.rank
    if q.denom.gens:
        return "%s / %s" % (base, _fmt_sub(q.denom))
    return base


def _attestation_notes(primes):
    notes = []
    seen = set()
    for p in primes:
        if p.attestation != ATTEST_LINEAR and p.key() not in seen:
            seen.add(p.key())
            notes.append("%s: %s" % (p, p.attestation))
    return notes


class Runner:
    """Executes a parsed script and emits one document per command."""

    def __init__(self, env, args, out):
        self.env = env
        self.args = args
        self.out = out
        self.tie_break = args.tie_break

    @property
    def source(self):
        return self.env.registry if self.env.registry is not None else MONOMIAL

    def _prime_notes(self, primes):
        """Attestation notes, plus the caveat when a registry is declared."""
        notes = _attestation_notes(primes)
        if self.env.registry is not None:
            notes.append(
                "associated primes are relative to the declared candidate set"
            )
        return notes

    def run(self, script):
        for stmt in script.statements:
            if isinstance(stmt, dsl.Command):
                self.dispatch(stmt)
            else:
                self.env.declare(stmt)
        return EXIT_OK

    def dispatch(self, cmd):
        handler = {
            "gpf": self.cmd_gpf,
            "filtration": self.cmd_filtration,
            "ass": self.cmd_ass,
            "colon": self.cmd_colon,
            "exists": self.cmd_exists,
            "construct": self.cmd_construct,
            "check-iff": self.cmd_check_iff,
            "verify": self.cmd_verify,
        }[cmd.op]
        started = time.monotonic()
        inputs, result, notes, verification = handler(cmd)
        millis = int((time.monotonic() - started) * 1000)
        self.emit(cmd.op, inputs, result, notes, verification, millis)

    def emit(self, op, inputs, result, notes, verification, millis):
        if self.args.json:
            doc = {
                "command": op,
                "inputs": inputs,
                "result": result,
                "attestations": notes,
                "verification": verification,
                "millis": millis if self.args.timings else 0,
            }
            self.out.write(json.dumps(doc, sort_keys=True) + "\n")
            return
        self.out.write("%s %s\n" % (op, self._inputs_line(inputs)))
        for line in self._result_lines(result):
            self.out.write("  %s\n" % line)
        for note in notes:
            self.out.write("  note: %s\n" % note)
        if verification:
            parts = ", ".join(
                "%s=%s" % (k, v) for k, v in sorted(verification.items())
            )
            self.out.write("  verified: %s\n" % parts)
        if self.args.timings:
            self.out.write("  (%d ms)\n" % millis)

    def _inputs_line(self, inputs):
        return " ".join(
            "%s=%s" % (k, v) for k, v in sorted(inputs.items())
        )

    def _result_lines(self, result):
        lines = []
        for key in sorted(result):
            value = result[key]
            if isinstance(value, list):
                lines.append("%s:" % key)
                for entry in value:
                    if isinstance(entry, dict):
                        parts = ", ".join(
                            "%s=%s" % (k, v)
                            for k, v in sorted(entry.items())
                        )
                        lines.append("  - %s" % parts)
                    else:
                        lines.append("  - %s" % (entry,))
            else:
                lines.append("%s: %s" % (key, value))
        return lines

    # --- command handlers ---

    def _verified_filtration(self, cmd):
        """The filtration a command asks for, its verify_rpe report, the
        inputs and the attestation notes."""
        sub = self.env.submodule(
            cmd.args["sub"], cmd.args["module"], cmd.line, cmd.col
        )
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        filt = rpe_filtration(
            sub, module, source=self.source, tie_break=self.tie_break
        )
        inputs = {
            "submodule": _fmt_sub(sub),
            "module": _fmt_module(module),
        }
        notes = self._prime_notes(filt.primes())
        return filt, verify_rpe(filt), inputs, notes

    def _chain(self, filt):
        """Filtration steps as an audit-friendly colon chain."""
        steps = []
        names = []
        for i, step in enumerate(filt.steps, start=1):
            names.append(str(step.prime))
            steps.append(
                {
                    "index": i,
                    "prime": str(step.prime),
                    "colon": "(N : %s)" % " * ".join(names),
                    "module": _fmt_sub(step.upper),
                }
            )
        return steps

    def cmd_gpf(self, cmd):
        filt, report, inputs, notes = self._verified_filtration(cmd)
        ms = PrimeMultiset.from_primes(filt.primes())
        result = {
            "factorization": str(ms),
            "factors": [
                {"prime": str(p), "exponent": r} for p, r in ms.entries()
            ],
        }
        verification = {
            "steps": report["ok"],
            "ass_complete": filt.ass_complete,
        }
        return inputs, result, notes, verification

    def cmd_filtration(self, cmd):
        filt, report, inputs, notes = self._verified_filtration(cmd)
        result = {"base": inputs["submodule"], "steps": self._chain(filt)}
        verification = {
            "steps": report["ok"],
            "ass_complete": filt.ass_complete,
        }
        return inputs, result, notes, verification

    def cmd_ass(self, cmd):
        sub = self.env.submodule(
            cmd.args["sub"], cmd.args["module"], cmd.line, cmd.col
        )
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        primes = ass_enumerate(
            module.with_denominator(sub), source=self.source
        )
        inputs = {
            "submodule": _fmt_sub(sub),
            "module": _fmt_module(module),
        }
        result = {
            "primes": [str(p) for p in primes],
            "complete": primes.complete,
        }
        notes = self._prime_notes(primes)
        return inputs, result, notes, {}

    def cmd_colon(self, cmd):
        sub = self.env.submodule(
            cmd.args["sub"], cmd.args["module"], cmd.line, cmd.col
        )
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        pairs = self.env.target_pairs(cmd.args["factors"])
        ideal = self.env.ideal_of_pairs(pairs)
        out = colon_module(sub, ideal, module)
        inputs = {
            "submodule": _fmt_sub(sub),
            "ideal": str(ideal),
            "module": _fmt_module(module),
        }
        result = {"module": _fmt_sub(out)}
        notes = _attestation_notes([p for p, _ in pairs])
        return inputs, result, notes, {}

    def cmd_exists(self, cmd):
        primes = [
            self.env.prime_of(e, cmd.line, cmd.col)
            for e in cmd.args["entries"]
        ]
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        report = exists_incomparable(primes, module, source=self.source)
        inputs = {
            "primes": ", ".join(str(p) for p in primes),
            "module": _fmt_module(module),
        }
        result = {
            "verdict": report.verdict,
            "conditions": [c.describe() for c in report.conditions],
        }
        if report.witness is not None:
            result["witness"] = _fmt_sub(report.witness)
        notes = self._prime_notes(primes)
        verification = {}
        if report.verdict:
            verification["witness_factorization"] = True
        return inputs, result, notes, verification

    def cmd_construct(self, cmd):
        target = self.env.target(cmd.args["factors"], cmd.line, cmd.col)
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        sub = construct_general(target, module, source=self.source)
        inputs = {
            "target": str(target),
            "module": _fmt_module(module),
        }
        result = {"submodule": _fmt_sub(sub)}
        notes = self._prime_notes(target.primes())
        return inputs, result, notes, {"factorization": True}

    def cmd_check_iff(self, cmd):
        target = self.env.target(cmd.args["factors"], cmd.line, cmd.col)
        module = self.env.module(cmd.args["module"], cmd.line, cmd.col)
        report = check_iff_criterion(target, module, source=self.source)
        inputs = {
            "target": str(target),
            "module": _fmt_module(module),
        }
        segments = [
            {
                "index": s.index,
                "prime": str(s.prime),
                "found": [str(p) for p in s.found],
                "ok": s.ok,
            }
            for s in report.segments
        ]
        result = {"verdict": report.verdict, "segments": segments}
        if report.failed_index is not None:
            result["failed_index"] = report.failed_index
        verification = {}
        if report.filtration is not None:
            result["steps"] = self._chain(report.filtration)
            verification["steps"] = True
        notes = self._prime_notes(target.primes())
        return inputs, result, notes, verification

    def cmd_verify(self, cmd):
        _, report, inputs, notes = self._verified_filtration(cmd)
        result = {"ok": True, "steps": require_ok(report)["steps"]}
        return inputs, result, notes, {"steps": True}


def _run_oracle(args, out):
    # the oracle is only imported when asked for, to keep start-up short
    from .oracle import run_fixture_checks

    report = run_fixture_checks()
    if args.json:
        out.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        for fx in report["fixtures"]:
            out.write(
                "fixture %s: %s\n"
                % (fx["name"], "ok" if fx["ok"] else "FAILED")
            )
            for chk in fx["checks"]:
                out.write(
                    "  %s %s\n"
                    % ("pass" if chk["ok"] else "FAIL", chk["check"])
                )
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpfkit",
        description=(
            "prime ideal factorizations of submodules: filtrations, "
            "associated primes, existence and construction"
        ),
    )
    parser.add_argument(
        "script",
        nargs="?",
        help="script file, or - for stdin",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document per command"
    )
    parser.add_argument(
        "--tie-break",
        choices=("lex", "revlex"),
        default="lex",
        help=(
            "ordering used to break ties between maximal primes; changes "
            "filtration and verify output only"
        ),
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="run the bundled finite-model cross-checks",
    )
    parser.add_argument(
        "--field",
        default=None,
        help="override the script's coefficient field (QQ or Fp:<q>)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include real timings (JSON output is no longer reproducible)",
    )
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a failed check
        if exc.code == 0:
            raise
        return EXIT_USAGE
    try:
        return _run(args, sys.stdout)
    except BrokenPipeError:
        # The reader closed stdout early (`gpfkit s.gpf | head -1`): drop
        # the rest and point stdout at the null device, so the
        # interpreter's final flush stays quiet too.
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK


def _run(args, out):
    if not args.oracle and args.script is None:
        build_parser().print_usage(sys.stderr)
        sys.stderr.write("error: need a script file or --oracle\n")
        return EXIT_USAGE
    if args.oracle:
        code = _run_oracle(args, out)
        if code != EXIT_OK or args.script is None:
            return code
    field = None
    if args.field is not None:
        try:
            field = dsl.parse_field_flag(args.field)
        except ValueError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return EXIT_USAGE
    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    try:
        script = dsl.parse(text)
    except ParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    env = dsl.Env(field_override=field)
    runner = Runner(env, args, out)
    try:
        return runner.run(script)
    except ParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except IncompleteRegistryError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_REGISTRY
    except (GpfError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
