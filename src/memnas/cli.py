"""Command-line surface: profile, plan, sample, train-predictor, search,
sweep, and compare, with stable JSON/CSV artifact formats.

Every randomized command takes a --seed (default 0); nothing reads entropy
from the environment, so reruns with the same inputs write byte-identical
artifacts.  Outputs are written atomically and each artifact gets a
``<name>.manifest.json`` sibling recording the command, inputs, seed, tool
and Python versions, the process's peak RSS, and wall time.

Exit codes: 0 ok, 2 validation failure (a ValidationError, malformed or
non-UTF-8 JSON included, or an OverflowError), 3 infeasible, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import sys
import tempfile
import time
from functools import cache
from itertools import zip_longest
from typing import TYPE_CHECKING

from . import __version__
from .errors import InfeasibleError, ValidationError
from .memory import flops_estimate, flops_millions, items_to_bytes, profile_network
from .planner import (
    REFERENCE_WIDTHS,
    ReferenceConfig,
    deviation_rows,
    plan_schedule,
    schedule_stage_peaks,
)
from .predictor import (
    Dataset,
    PredictorModel,
    balanced_sample,
    predict,
    synthetic_score,
    train,
)
from .search import (
    SearchConstraint,
    SearchParams,
    SearchResult,
    search,
    sweep,
    write_sweep_csv,
)
from .space import SubnetConfig, SupernetSpace, default_space, require_valid, resolve

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

#: bounds on the work one run may ask for: ``sample --n`` and ``--buckets``,
#: and ``search`` and ``sweep`` ``--population`` and ``--generations``
MAX_ROWS = 1_000_000
MAX_BUCKETS = 1_000
MAX_SEARCH_SIZE = 100_000


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``; an OSError names ``path``, never the temporary file.

    ``mkstemp`` creates the file readable by its owner alone, so it is given
    the mode ``open`` would have given a new file, 0o666 less the umask,
    before the rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


#: flags naming input files; a manifest lists those given
_INPUT_FLAGS = ("config", "config_a", "config_b", "dataset", "model", "space", "space_a", "space_b")


def _write_artifact(args, path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically, then its manifest.

    ``peak_rss_kb`` is the process's peak resident set so far, as
    ``getrusage`` reports it (kilobytes on Linux)."""
    import platform

    _atomic_write(path, text)
    given = {flag: getattr(args, flag, None) for flag in _INPUT_FLAGS}
    manifest = {
        "command": args.command,
        "inputs": {flag: value for flag, value in given.items() if value is not None},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_s": round(time.time() - args.started, 3),
    }
    _atomic_write(path + ".manifest.json", _canonical_json(manifest))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # bad syntax, an integer of more than 4,300 digits or nesting
            # deeper than the interpreter's recursion limit
            raise ValidationError(f"{path}: malformed JSON: {exc}") from None


def _load_space(path: str | None) -> SupernetSpace:
    """The space in ``path``, or the default one."""
    if path is None:
        return default_space()
    return SupernetSpace.from_json_dict(_load_json(path))


def _load_config(path: str) -> SubnetConfig:
    return SubnetConfig.from_json_dict(_load_json(path))


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of at least one integer."""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _at_most(cap: int):
    """argparse type for an integer of at most ``cap``; see ``MAX_ROWS``."""

    def integer(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value

    return integer


def cmd_profile(args) -> int:
    space = _load_space(args.space)
    config = _load_config(args.config)
    skeleton = resolve(config, space, include_classifier=args.include_classifier)
    profile = profile_network(skeleton)
    flops = flops_estimate(skeleton)
    peak_label = profile.records[profile.peak_index].label
    print(f"layers: {len(profile.records)}")
    line = f"peak:   {profile.peak_items} items (index {profile.peak_index}, {peak_label})"
    if args.bytes:
        line += f" = {items_to_bytes(profile.peak_items)} bytes @float32"
    print(line)
    line = f"avg:    {profile.avg_items:.1f} +/- {profile.std_items:.1f} items"
    if args.bytes:
        line += (
            f" = {profile.avg_items * 4:.1f} +/- {profile.std_items * 4:.1f}"
            " bytes @float32"
        )
    print(line)
    print(f"flops:  {flops_millions(flops)} M")
    if args.csv:
        buf = io.StringIO()
        profile.write_csv(buf)
        _write_artifact(args, args.csv, buf.getvalue())
    return EXIT_OK


def cmd_plan(args) -> int:
    ref = ReferenceConfig(
        depth=args.depth, kernel=args.kernel, expand=args.expand, resolution=args.resolution
    )
    if args.mode == "closed-form":
        print(
            "warning: the printed depthwise-dominated transition ratio is < 1 for "
            "all inputs, so closed-form schedules shrink at depthwise-dominated "
            "transitions; use --mode numeric for memory-constant schedules"
        )
    schedule = plan_schedule(ref, stem_width=args.stem, divisor=args.divisor, mode=args.mode)
    peaks = schedule_stage_peaks(ref, schedule)
    print(f"schedule: {list(schedule.all_widths())}")
    print("stage  width  peak_items")
    for i, (w, p) in enumerate(zip(schedule.stage_widths, peaks), start=1):
        print(f"{i:>5}  {w:>5}  {p:>10}")
    print("entry  role    reference  planned  deviation")
    for row in deviation_rows(schedule):
        planned = "-" if row["planned"] is None else row["planned"]
        dev = "-" if row["deviation"] is None else f"{row['deviation']:+d}"
        print(
            f"{row['entry']:>5}  {row['role']:<6}  {row['reference']:>9}"
            f"  {planned:>7}  {dev:>9}"
        )
    if args.out:
        _write_artifact(args, args.out, _canonical_json(schedule.to_json_dict()))
    return EXIT_OK


def cmd_sample(args) -> int:
    space = _load_space(args.space)
    scorer = _oracle(args, space)
    dataset = balanced_sample(
        space, n=args.n, num_buckets=args.buckets, rng_seed=args.seed, scorer=scorer
    )
    buf = io.StringIO()
    dataset.write_jsonl(buf)
    _write_artifact(args, args.out, buf.getvalue())
    print(f"wrote {len(dataset.rows)} rows to {args.out}")
    print(f"bucket edges: {[round(e, 1) for e in dataset.bucket_edges]}")
    return EXIT_OK


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, each run of equal values given the mean of its
    positions, as ``scipy.stats.rankdata`` gives them."""
    import numpy as np

    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # where each run of equal values starts in sorted order, then the end
    bounds = np.r_[np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]), len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2, np.diff(bounds))
    return ranks


def _spearman(a, b) -> float:
    """Spearman's rank correlation, as ``scipy.stats.spearmanr`` gives it:
    ``nan`` for fewer than two pairs or a constant side."""
    import numpy as np

    ra, rb = _average_ranks(a), _average_ranks(b)
    if len(ra) < 2 or ra.min() == ra.max() or rb.min() == rb.max():
        return float("nan")
    return float(np.corrcoef(ra, rb)[1, 0])


def cmd_train(args) -> int:
    space = _load_space(args.space)
    with open(args.dataset, encoding="utf-8") as fh:
        numbered = list(Dataset.numbered_rows(fh))
    rows = [row for _, row in numbered]
    if not rows:
        raise ValidationError(f"dataset {args.dataset} is empty")
    if not 0 <= args.holdout < 1:
        raise ValidationError(f"--holdout must lie in [0, 1), got {args.holdout}")
    order = list(range(len(rows)))
    random.Random(args.seed).shuffle(order)
    # any positive fraction holds out at least one row when there are two
    n_holdout = (
        max(1, int(len(order) * args.holdout)) if args.holdout > 0 and len(order) > 1 else 0
    )
    held = [rows[i] for i in order[:n_holdout]]
    kept = [rows[i] for i in order[n_holdout:]]
    try:
        model = train(
            Dataset(rows=tuple(kept), bucket_edges=()),
            space,
            l2=args.l2,
            seed=args.seed,
        )
        preds = [predict(model, row.config, space) for row in held]
    except ValidationError:
        # train and predict check each row's fit to the space, once, where
        # its line is no longer known: the first row that does not fit is
        # named by the line it was read from
        for number, row in numbered:
            try:
                require_valid(row.config, space)
            except ValidationError as exc:
                raise ValidationError(f"line {number}: {exc}") from None
        raise
    _write_artifact(args, args.out, _canonical_json(model.to_json_dict()))
    print(f"trained on {len(kept)} rows (l2={args.l2}), wrote {args.out}")
    if held:
        rho = _spearman(preds, [row.score for row in held])
        print(f"held-out rank correlation (n={len(held)}): {rho:.4f}")
    return EXIT_OK


def _oracle(args, space):
    noise_seed = None if args.no_noise else args.seed
    return lambda cfg: synthetic_score(cfg, space, noise_seed=noise_seed)


def _make_scorer(args, space):
    if args.model:
        model = PredictorModel.from_json_dict(_load_json(args.model))
        return lambda cfg: predict(model, cfg, space)
    return _oracle(args, space)


def _params_from_args(args) -> SearchParams:
    return SearchParams(
        population=args.population,
        generations=args.generations,
        parent_fraction=args.parent_fraction,
        mutation_prob=args.mutation_prob,
        mutation_fraction=args.mutation_fraction,
        seed=args.seed,
    )


def cmd_search(args) -> int:
    space = _load_space(args.space)
    scorer = _make_scorer(args, space)
    constraint = SearchConstraint(
        max_peak_items=args.constraint,
        exclude_classifier=not args.include_classifier,
    )
    result = search(space, constraint, scorer, _params_from_args(args))
    _write_artifact(args, args.out, _canonical_json(result.to_json_dict()))
    print(
        f"best score {result.best_score:.6f} at peak {result.best_peak_items} items "
        f"(constraint {args.constraint}, {result.evaluations} evaluations)"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    space = _load_space(args.space)
    scorer = _make_scorer(args, space)
    points = sweep(
        space,
        args.constraints,
        scorer,
        _params_from_args(args),
        exclude_classifier=not args.include_classifier,
    )
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    _write_artifact(args, args.out, buf.getvalue())
    for p in points:
        if p.result is None:
            print(f"{p.constraint_items}: infeasible ({p.error})")
        else:
            print(
                f"{p.constraint_items}: best {p.result.best_score:.6f} "
                f"peak {p.result.best_peak_items}"
            )
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.space_a:
        args.space = None  # only the default of --space-a, so not an input
    space_a = _load_space(args.space_a or args.space)
    space_b = _load_space(args.space_b or args.space_a or args.space)
    profile_a = profile_network(
        resolve(_load_config(args.config_a), space_a, include_classifier=args.include_classifier)
    )
    profile_b = profile_network(
        resolve(_load_config(args.config_b), space_b, include_classifier=args.include_classifier)
    )
    buf = io.StringIO()
    buf.write("index,label_a,total_items_a,label_b,total_items_b\n")
    for i, pair in enumerate(zip_longest(profile_a.records, profile_b.records)):
        cells = ",".join(f"{r.label},{r.total_items}" if r else "," for r in pair)
        buf.write(f"{i},{cells}\n")
    _write_artifact(args, args.out, buf.getvalue())
    print(
        f"A: peak {profile_a.peak_items}, B: peak {profile_b.peak_items}; "
        f"wrote {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memnas",
        description="memory-constant channel planning, peak-RAM profiling, and "
        "constrained subnet search",
        epilog="Join a value that starts with a dash to its flag with '=', as in "
        "--seed=-inf: given apart (--seed -inf), it reads as an option.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--space", help="space JSON (default: built-in planned space)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[common], help="profile one configuration")
    p.add_argument("--config", required=True, help="subnet config JSON")
    p.add_argument("--bytes", action="store_true", help="also print float32 bytes")
    p.add_argument("--include-classifier", action="store_true")
    p.add_argument("--csv", help="write the per-layer trace CSV here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("plan", parents=[seeded], help="plan a channel schedule")
    p.add_argument("--mode", choices=["numeric", "closed-form"], default="numeric")
    p.add_argument("--divisor", type=int, default=8)
    p.add_argument("--stem", type=int, default=8)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--kernel", type=int, default=7)
    p.add_argument("--expand", type=float, default=4)
    p.add_argument("--resolution", type=int, default=224)
    p.add_argument("--out", help="write the schedule JSON here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sample", parents=[common], help="build a balanced dataset")
    p.add_argument("--n", type=_at_most(MAX_ROWS), required=True, help=f"rows, at most {MAX_ROWS}")
    p.add_argument("--buckets", type=_at_most(MAX_BUCKETS), default=10,
                   help=f"peak-memory buckets, at most {MAX_BUCKETS}")
    p.add_argument("--no-noise", action="store_true", help="noiseless synthetic scores")
    p.add_argument("--out", required=True, help="dataset JSONL path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train-predictor", parents=[common], help="fit the surrogate")
    p.add_argument("--dataset", required=True, help="dataset JSONL path")
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    search_common = argparse.ArgumentParser(add_help=False)
    search_common.add_argument("--model", help="predictor model JSON (default: synthetic)")
    search_common.add_argument("--no-noise", action="store_true")
    search_common.add_argument("--include-classifier", action="store_true")
    size, cap = _at_most(MAX_SEARCH_SIZE), f"at most {MAX_SEARCH_SIZE}"
    search_common.add_argument("--population", type=size, default=100, help=cap)
    search_common.add_argument("--generations", type=size, default=50, help=cap)
    search_common.add_argument("--parent-fraction", type=float, default=0.25)
    search_common.add_argument("--mutation-prob", type=float, default=0.1)
    search_common.add_argument("--mutation-fraction", type=float, default=0.5)

    p = sub.add_parser(
        "search", parents=[common, search_common], help="search under one constraint"
    )
    p.add_argument("--constraint", type=int, required=True, help="max peak items")
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "sweep", parents=[common, search_common], help="search a constraint ladder"
    )
    p.add_argument(
        "--constraints",
        type=_int_list,
        required=True,
        help="comma-separated ascending item caps",
    )
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "compare", parents=[common], help="aligned per-layer traces of two configs"
    )
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--space-a", help="space for config A (default --space)")
    p.add_argument("--space-b", help="space for config B (default --space-a)")
    p.add_argument("--include-classifier", action="store_true")
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.set_defaults(func=cmd_compare)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call only: ``parse_args``
    leaves a parser as it found it, so one serves every ``main`` call of a
    process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.started = time.time()
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        # an input number so large that float arithmetic on it overflows
        print(f"error: a number is too large: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: I/O: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
