"""isogeo command line: run configs, validate them, sample geodesics."""

import os
import sys

import click

from . import experiments
from .config import ConfigError, _parse_point, load_config
from .diffeos import make_diffeomorphism, registered_names
from .pullback import PullbackManifold
from .serialize import _write_text


@click.group()
def main():
    """Iso-Riemannian geometry experiments on pullback manifolds."""


def _report(exc):
    """A ConfigError's problems on stderr, one ``error:`` line each."""
    for problem in exc.problems:
        click.echo(f"error: {problem}", err=True)


_STATUS = {experiments.EXIT_OK: "ok", experiments.EXIT_USAGE: "config error",
           experiments.EXIT_STALL: "stalled",
           experiments.EXIT_INTERNAL: "internal error"}


@main.command()
@click.argument("config_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
def run(config_files):
    """Run the experiment of each CONFIG_FILE in turn.

    Prints one status line per config and exits with the highest exit code.
    """
    worst = experiments.EXIT_OK
    for config_file in config_files:
        name = os.path.basename(config_file)
        try:
            config = load_config(config_file)
            code = experiments.run(config)
            click.echo(f"{name}: {_STATUS[code]} -> {config.output_dir}")
        except ConfigError as exc:
            _report(exc)
            code = experiments.EXIT_USAGE
            click.echo(f"{name}: {_STATUS[code]}")
        worst = max(worst, code)
    sys.exit(worst)


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
def validate(config_file):
    """Check CONFIG_FILE and report problems without running anything."""
    try:
        config = load_config(config_file)
        # A run cannot make its output directory below a file: look, make nothing.
        ancestor = config.output_dir
        while ancestor and not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if ancestor and not os.path.isdir(ancestor):
            raise ConfigError([f"output.dir: {ancestor!r} is not a directory"])
    except ConfigError as exc:
        _report(exc)
        sys.exit(experiments.EXIT_USAGE)
    click.echo(f"ok: {config.experiment} experiment on "
               f"{config.geometry_name} geometry -> {config.output_dir}")


@main.command()
@click.option("--geometry", required=True, type=click.Choice(registered_names()))
@click.option("--beta", type=float, default=None, help="river/spiral parameter")
@click.option("--eta", type=float, default=None, help="river parameter")
@click.option("-a", "--a", "a_param", type=float, default=None, help="banana shear")
@click.option("-z", "--z", "z_param", type=float, default=None, help="banana offset")
@click.option("--dim", type=int, default=None, help="identity dimension")
@click.option("--from", "start", required=True, help="start point x1,x2,...")
@click.option("--to", "end", required=True, help="end point y1,y2,...")
@click.option("--samples", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--iso/--levi-civita", default=False,
              help="sample the constant-speed geodesic instead of the Levi-Civita one")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (default: stdout)")
def geodesic(geometry, beta, eta, a_param, z_param, dim, start, end, samples,
             iso, output):
    """Sample a geodesic between two points and emit (t, coords) CSV rows."""
    params = {k: v for k, v in
              (("beta", beta), ("eta", eta), ("a", a_param), ("z", z_param),
               ("dim", dim)) if v is not None}
    try:
        diffeo = make_diffeomorphism(geometry, params)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad parameters for {geometry}: {exc}")
    M = PullbackManifold(diffeo)
    try:
        x = _parse_point(start, M.dim, "--from")
        y = _parse_point(end, M.dim, "--to")
    except ConfigError as exc:
        raise click.UsageError(exc.problems[0])
    try:
        text = experiments.geodesic_csv(M, x, y, samples, iso)
    except experiments.NUMERICAL_FAILURES as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(experiments.EXIT_STALL)
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        _write_text(output, text)
    except OSError as exc:
        click.echo(f"error: --output: {exc}", err=True)
        sys.exit(experiments.EXIT_USAGE)


if __name__ == "__main__":
    main()
