"""Command-line front end.

Every command resolves its parameters from built-in defaults, then the
[command] section of an ini file given with --config, then --key value
flags, and writes its artifacts into --outdir.  Exit codes: 0 every in-run
check passed, 1 usage error, 2 numerical failure (blow-up, lost
positivity, stalled quadrature), 3 a failed check: one FAILED line each,
with every output written.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ContractError, NumericalError
from .experiments import _PARSERS, _SCHEMAS, load_config, run

_HELP = {
    "simulate": "evolve one initial state and record diagnostics",
    "wave": "build a periodic traveling wave and verify it",
    "beta": "resolvent form and its weighted integral on random data",
    "gronwall": "growth-rate ensemble for the weighted form",
    "illposed": "traveling-wave observables along the degenerate limit",
    "smoothing": "operator-norm scan of the depth smoothing bound",
    "twodepth": "two-depth flow against its deep-water limit",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, so every call shares it and none may modify it."""
    # a flag prefix is a usage error: ``_joined`` joins exact names only
    parser = argparse.ArgumentParser(
        prog="ilw-lab", allow_abbrev=False,
        description="spectral experiments for finite-depth dispersive flows")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in sorted(_SCHEMAS):
        cmd = sub.add_parser(name, help=_HELP[name], allow_abbrev=False)
        cmd.add_argument("--config", metavar="FILE", default=None,
                         help="ini file with a [%s] section" % name)
        cmd.add_argument("--outdir", metavar="DIR", default=None,
                         help="output directory (default ilw_lab_%s)" % name)
        for key in _SCHEMAS[name]:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             default=None, metavar="V")
    return parser


def _joined(argv: list) -> list:
    """Each ``--key value`` of a numeric schema flag as ``--key=value`` when
    the value parses as the key's kind: argparse would take a negative
    number in exponent form (``--s -1e-1``) or a list (``-1,1``) for an
    option."""
    schema = _SCHEMAS.get(argv[0], {}) if argv else {}
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        spec = schema.get(flag[2:].replace("-", "_")) \
            if flag.startswith("--") else None
        if spec and spec[0] != "str":
            try:
                _PARSERS[spec[0]](arg)
            except ValueError:
                pass
            else:
                out[-1] = flag + "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined(sys.argv[1:] if argv is None
                                         else list(argv)))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config", "outdir")
                 and value is not None}
    try:
        cfg = load_config(args.command, args.config, overrides, args.outdir)
        result = run(cfg)
    except ContractError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    if result.failures:
        for item in result.failures:
            print("FAILED: %s" % item, file=sys.stderr)
        return 3
    print("ok: %s -> %s" % (args.command, cfg.output_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
