"""Command-line interface."""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .config import AnalysisConfig, InputSpec, parse_input_spec
from .errors import FldxError, OverflowAlarm
from .numerics import FORMATS
from .pipeline import STAGES, StageError, analyze, instrumented_source
from .report import REPORT_SCHEMA

#: exit codes: 0 clean, 1 alarms found, then one per failing stage
_STAGE_EXIT = {stage: i + 2 for i, stage in enumerate(STAGES)}


def _parsed(parse):
    """A click callback that parses a value; ValueError is a usage error."""
    def callback(ctx, param, value):
        try:
            return parse(value)
        except ValueError as exn:
            raise click.BadParameter(str(exn)) from None
    return callback


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exn:
        raise StageError("parse", FldxError(
            f"source is not UTF-8 text ({exn.reason} at byte {exn.start})"))


def _build_config(fmt, inputs, entry, max_noise, path_budget, threshold,
                  trace, no_instrument) -> AnalysisConfig:
    cfg = AnalysisConfig(fmt=FORMATS[fmt], entry=entry, max_syms=max_noise,
                         path_budget=path_budget, threshold=threshold,
                         collect_trace=trace,
                         auto_instrument=not no_instrument)
    for name, parsed in inputs:
        if isinstance(parsed, InputSpec):
            try:
                parsed.check_finite(cfg.fmt)
            except OverflowAlarm as exn:
                raise click.BadParameter(f"{name}: {exn}",
                                         param_hint="'--input'") from None
            cfg.inputs[name] = parsed
        elif isinstance(parsed, tuple):
            cfg.array_inputs[name] = parsed
        else:
            cfg.int_inputs[name] = parsed
    return cfg


def _or_exit(run):
    """run(), or an exit with the code of the stage it fails in; an
    error no stage claims, such as an undeclared name, is execute's."""
    try:
        return run()
    except StageError as exn:
        click.echo(f"error: {exn}", err=True)
        sys.exit(_STAGE_EXIT[exn.stage])
    except FldxError as exn:
        click.echo(f"error: {exn}", err=True)
        sys.exit(_STAGE_EXIT["execute"])


_no_instrument = click.option("--no-instrument", is_flag=True,
                              help="Do not auto-place split/merge sections.")


@click.group()
@click.version_option()
def main() -> None:
    """Floating-point accuracy analyzer for a mini-C subset."""


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", default="binary64",
              type=click.Choice(sorted(FORMATS)), show_default=True,
              help="Floating-point format of machine operations.")
@click.option("--input", "inputs", multiple=True, metavar="NAME=SPEC",
              callback=_parsed(lambda specs: [parse_input_spec(s)
                                              for s in specs]),
              help="Bind an input: x=[lo,hi], x=[lo,hi]~[elo,ehi],"
                   " n=3, or t={0.0,1.0,2.0}.")
@click.option("--entry", default=None, help="Entry function.")
@click.option("--max-noise", default=64, show_default=True,
              type=click.IntRange(min=1),
              help="Noise symbols kept per affine form.")
@click.option("--path-budget", default=256, show_default=True,
              type=click.IntRange(min=1),
              help="Execution paths explored per section.")
@click.option("--threshold", default="0.05", show_default=True,
              callback=_parsed(
                  lambda t: Fraction(t).limit_denominator(10**9)),
              help="Minimal width improvement for constraint adoption.")
@click.option("--trace", is_flag=True, help="Record a decision trace.")
@_no_instrument
@click.option("--report", "report_fmt", default="text",
              type=click.Choice(["text", "json"]), show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False),
              default=None, help="Write the report to a file.")
def analyze_cmd(source, fmt, inputs, entry, max_noise, path_budget,
                threshold, trace, no_instrument, report_fmt, output):
    """Analyze SOURCE and report accuracy verdicts."""
    cfg = _build_config(fmt, inputs, entry, max_noise, path_budget,
                        threshold, trace, no_instrument)
    rep = _or_exit(lambda: analyze(_read_source(source), cfg,
                                   source_name=source))
    text = rep.to_json() if report_fmt == "json" else rep.to_text()
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)
    sys.exit(1 if rep.has_alarms else 0)


main.add_command(analyze_cmd, name="analyze")


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@_no_instrument
@click.option("--output", "-o", type=click.Path(dir_okay=False),
              default=None, help="Write the instrumented source to a file.")
def instrument(source, no_instrument, output):
    """Print SOURCE with split/merge sections placed."""
    cfg = AnalysisConfig(auto_instrument=not no_instrument)
    text = _or_exit(lambda: instrumented_source(_read_source(source), cfg))
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
def schema():
    """Print the JSON schema of analysis reports."""
    click.echo(json.dumps(REPORT_SCHEMA, indent=2))


if __name__ == "__main__":
    main()
