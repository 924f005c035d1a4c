"""Experiment runner and ranking statistics: repeated paired comparisons,
Friedman test, Nemenyi critical difference, and robust descriptives."""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attack_engine import AttackConfig, AttackSummary, attack_testset
from .synth_data import GeneratorConfig, generate
from .target_lcd import TargetConfig, train_target


class TooFewBlocks(ValueError):
    """Ranking needs at least 2 methods and 2 blocks."""


# Critical values q_alpha of the Nemenyi test (studentized range / sqrt(2)),
# Demsar 2006, for k = 2..10 methods.
_NEMENYI_Q = {
    0.05: (1.959964, 2.343701, 2.569032, 2.727774, 2.849705,
           2.948319, 3.030879, 3.101730, 3.163684),
    0.10: (1.644854, 2.052293, 2.291341, 2.459516, 2.588521,
           2.692732, 2.779884, 2.854606, 2.919889),
}


_TABLE_HEADER = ["row", "method", "rep", "decline"]


@dataclass(frozen=True)
class ResultTable:
    """Accuracy declines (percentage points, negative = decline): one row per
    dataset config (or budget), one column per method, repetitions deep."""

    row_names: tuple[str, ...]
    method_names: tuple[str, ...]
    values: np.ndarray  # shape (rows, methods, repetitions)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != len(self.row_names) or v.shape[1] != len(self.method_names):
            raise ValueError("values must have shape (rows, methods, repetitions)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def repetitions(self) -> int:
        return self.values.shape[2]

    def method_values(self, method: str) -> np.ndarray:
        j = self.method_names.index(method)
        return self.values[:, j, :].ravel()

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_TABLE_HEADER)
        for i, row in enumerate(self.row_names):
            for j, method in enumerate(self.method_names):
                for rep in range(self.repetitions):
                    writer.writerow([row, method, rep, repr(float(self.values[i, j, rep]))])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        """Parse to_csv output; raises ValueError on any malformed table."""
        try:
            records = [r for r in csv.reader(io.StringIO(text)) if any(f.strip() for f in r)]
        except csv.Error as exc:
            raise ValueError(str(exc)) from exc
        if not records or records[0] != _TABLE_HEADER:
            raise ValueError("bad result-table CSV header")
        cells: dict[tuple[str, str], dict[int, float]] = {}
        for rec in records[1:]:
            if len(rec) != 4:
                raise ValueError(f"expected 4 fields, got {len(rec)}: {rec!r}")
            cell, rep, decline = (rec[0], rec[1]), int(rec[2]), float(rec[3])
            if not math.isfinite(decline):
                raise ValueError(f"decline of {rec!r} is not finite")
            if rep in cells.setdefault(cell, {}):
                raise ValueError(f"repeated cell {(*cell, rep)!r}")
            cells[cell][rep] = decline
        if not cells:
            raise ValueError("result table has no data rows")
        row_names = tuple(dict.fromkeys(row for row, _ in cells))
        method_names = tuple(dict.fromkeys(method for _, method in cells))
        reps = max(len(c) for c in cells.values())
        values = np.zeros((len(row_names), len(method_names), reps))
        for i, row in enumerate(row_names):
            for j, method in enumerate(method_names):
                got = cells.get((row, method), {})
                if sorted(got) != list(range(reps)):
                    raise ValueError(f"rep indices of ({row!r}, {method!r}) must run "
                                     f"0..{reps - 1}, got {sorted(got)}")
                values[i, j, list(got)] = list(got.values())
        return cls(row_names, method_names, values)

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_names),
            "methods": list(self.method_names),
            "values": self.values.tolist(),
        }


@dataclass(frozen=True)
class RankReport:
    """Per-method mean rank and descriptives plus the Friedman and Nemenyi results.

    Larger decline (more negative) is the better attack; rank k is best, so the
    strongest method has the highest mean rank, matching the reporting
    convention of critical-difference diagrams for attack benchmarks.
    """

    method_names: tuple[str, ...]
    mean_ranks: tuple[float, ...]
    descriptives: dict[str, dict[str, float]]  # rank_descriptives of the table
    friedman_chi2: float
    friedman_p: float
    cd: float
    alpha: float
    n_blocks: int
    significant: tuple[tuple[bool, ...], ...]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_blocks": self.n_blocks,
            "friedman_chi2": self.friedman_chi2,
            "friedman_p": self.friedman_p,
            "critical_difference": self.cd,
            "methods": [
                {
                    "name": m,
                    "mean_rank": r,
                    "median": self.descriptives[m]["median"],
                    "mad": self.descriptives[m]["mad"],
                    "ci": [self.descriptives[m]["ci_low"], self.descriptives[m]["ci_high"]],
                }
                for m, r in zip(self.method_names, self.mean_ranks)
            ],
            "significant": [list(row) for row in self.significant],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = ["method", "mean_rank", "median", "mad", "ci_low", "ci_high"]
        writer.writerow(header)
        for m, r in zip(self.method_names, self.mean_ranks):
            record = {"mean_rank": r, **self.descriptives[m]}
            writer.writerow([m] + [repr(record[col]) for col in header[1:]])
        return out.getvalue()


def check_rankable(k: int, n_blocks: int, alpha: float) -> None:
    """Raise unless friedman_nemenyi can rank k methods over n_blocks blocks
    at alpha: ValueError when alpha has no embedded q table or k > 10,
    TooFewBlocks when k < 2 or n_blocks < 2."""
    if alpha not in _NEMENYI_Q:
        raise ValueError(f"no embedded q table for alpha={alpha}")
    if k > 10:
        raise ValueError(f"embedded q constants cover 2 <= k <= 10 methods, got k={k}")
    if k < 2 or n_blocks < 2:
        raise TooFewBlocks(f"need >= 2 methods and >= 2 blocks, got k={k}, N={n_blocks}")


def nemenyi_critical_difference(k: int, n_blocks: int, alpha: float = 0.05) -> float:
    """CD = q_alpha * sqrt(k (k+1) / (6 N))."""
    check_rankable(k, n_blocks, alpha)
    q = _NEMENYI_Q[alpha][k - 2]
    return q * np.sqrt(k * (k + 1) / (6.0 * n_blocks))


def rank_descriptives(table: ResultTable) -> dict[str, dict[str, float]]:
    """Per-method median, MAD, and the notched-median interval
    MED +/- 1.58 * IQR / sqrt(m)."""
    out = {}
    for method in table.method_names:
        vals = table.method_values(method)
        med = float(np.median(vals))
        mad = float(np.median(np.abs(vals - med)))
        iqr = float(np.percentile(vals, 75) - np.percentile(vals, 25))
        half = 1.58 * iqr / math.sqrt(len(vals))
        out[method] = {"median": med, "mad": mad,
                       "ci_low": med - half, "ci_high": med + half}
    return out


def friedman_nemenyi(table: ResultTable, alpha: float = 0.05) -> RankReport:
    """Friedman test over blocks = rows x repetitions, then the Nemenyi
    critical difference on mean ranks.

    Within each block, methods are ranked so the largest decline (most
    negative value, the strongest attack) takes rank k; ties share averaged
    ranks. chi2_F = 12N / (k (k+1)) * [sum_j R_j^2 - k (k+1)^2 / 4].
    """
    k = len(table.method_names)
    blocks = table.values.transpose(0, 2, 1).reshape(-1, k)
    n = blocks.shape[0]
    check_rankable(k, n, alpha)
    # scipy is imported here, by its only user, so that generating, training
    # and attacking load numpy and nothing heavier
    from scipy.stats import chi2, rankdata

    ranks = np.empty_like(blocks)
    for b in range(n):
        ranks[b] = k + 1 - rankdata(blocks[b])
    mean_ranks = ranks.mean(axis=0)
    chi2_stat = 12.0 * n / (k * (k + 1)) * (np.sum(mean_ranks**2) - k * (k + 1) ** 2 / 4.0)
    p_value = float(chi2.sf(chi2_stat, df=k - 1))
    cd = float(nemenyi_critical_difference(k, n, alpha))
    significant = tuple(
        tuple(bool(abs(mean_ranks[i] - mean_ranks[j]) > cd) for j in range(k))
        for i in range(k)
    )
    return RankReport(
        method_names=table.method_names,
        mean_ranks=tuple(float(r) for r in mean_ranks),
        descriptives=rank_descriptives(table),
        friedman_chi2=float(chi2_stat),
        friedman_p=p_value,
        cd=cd,
        alpha=alpha,
        n_blocks=n,
        significant=significant,
    )


def cd_diagram_text(report: RankReport) -> str:
    """Plain-text critical-difference diagram: methods on the mean-rank axis and
    the cliques whose mean-rank spread stays within CD."""
    order = sorted(range(len(report.method_names)),
                   key=lambda i: -report.mean_ranks[i])
    lines = [
        f"critical difference diagram (alpha={report.alpha}, "
        f"k={len(report.method_names)}, N={report.n_blocks})",
        f"CD = {report.cd:.4f} (higher mean rank = stronger attack)",
        "",
    ]
    for i in order:
        lines.append(f"  MR={report.mean_ranks[i]:.4f}  {report.method_names[i]}")
    cliques = []
    mrs = [report.mean_ranks[i] for i in order]
    for start in range(len(order)):
        end = start
        while end + 1 < len(order) and mrs[start] - mrs[end + 1] <= report.cd:
            end += 1
        if end > start:
            cliques.append((start, end))
    maximal = [c for c in cliques
               if not any(o != c and o[0] <= c[0] and c[1] <= o[1] for o in cliques)]
    lines.append("")
    if maximal:
        for start, end in maximal:
            names = ", ".join(report.method_names[order[i]] for i in range(start, end + 1))
            lines.append(f"  no significant difference within: {{{names}}}")
    else:
        lines.append("  all pairwise differences exceed CD")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark column: a named (strategy, surrogate, r-override) combination."""

    name: str
    strategy: str = "eigencentrality"
    surrogate: str = "svm_rbf"
    r: float | None = None


def method_config(base: AttackConfig, method: MethodSpec, r: float | None = None) -> AttackConfig:
    """The attack config of a method's cells: r is a budget row's ratio; without
    one, the method's own r, else base's."""
    if r is None:
        r = base.r if method.r is None else method.r
    return replace(base, strategy=method.strategy, surrogate=method.surrogate, r=r)


def _run_block(args) -> list[list[AttackSummary]]:
    """Summaries of one (config, repetition) block, one list per row of the
    config and within it one per method: the dataset is generated and the
    target trained once, and every cell attacks the same test split."""
    gen_cfg, rep_seed, ratios, methods, base, target_cfg = args
    ds = generate(replace(gen_cfg, seed=rep_seed))
    target = train_target(ds, wl_iters=target_cfg.wl_iters, C=target_cfg.C, seed=rep_seed)
    test_ds = ds.subset("test")
    return [[attack_testset(target, test_ds, replace(method_config(base, method, r), seed=rep_seed))
             for method in methods] for r in ratios]


def bench_rows(configs, budgets: list[float] | None) -> list[tuple[str, str, float | None]]:
    """(row name, config name, budget ratio or None) of each benchmark row:
    one per config, or with budgets given one per (config, budget)."""
    if budgets:
        return [(f"{cname}:r={r:g}", cname, r) for cname in configs for r in budgets]
    return [(cname, cname, None) for cname in configs]


@dataclass
class BenchResult:
    table: ResultTable
    summaries: dict[tuple[str, str, int], AttackSummary]


def run_benchmark(
    methods: list[MethodSpec],
    configs: dict[str, GeneratorConfig],
    base: AttackConfig,
    repetitions: int = 10,
    budgets: list[float] | None = None,
    seed: int = 42,
    target: TargetConfig = TargetConfig(),
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> BenchResult:
    """Paired benchmark: per (config, repetition) block, one freshly generated
    dataset and target (target's wl_iters and C; the rep seed for both, in
    place of target.seed), which every method attacks on the same test split.

    Rows are dataset configs; with budgets given, each config expands to one
    row per budget value r (the Table-5-style sweep), and a block's target
    serves all of its rows. Blocks are independent given their seeds, so the
    worker count cannot change any value. progress, if given, is called with
    (cells done, cells in all) once per cell, counting up, as each block ends.
    """
    if not methods or not configs or repetitions < 1:
        raise ValueError("need methods, configs, and repetitions >= 1")
    rows = bench_rows(configs, budgets)
    ratios = budgets or [None]
    tasks = [(gen_cfg, seed + rep, ratios, methods, base, target)
             for gen_cfg in configs.values() for rep in range(repetitions)]
    values = np.zeros((len(rows), len(methods), repetitions))
    summaries: dict[tuple[str, str, int], AttackSummary] = {}
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            blocks = pool.map(_run_block, tasks)
        else:
            blocks = map(_run_block, tasks)
        for block_idx, block in enumerate(blocks):
            config_idx, rep = divmod(block_idx, repetitions)
            for row_idx, row_cells in enumerate(block, start=config_idx * len(ratios)):
                for method_idx, summary in enumerate(row_cells):
                    values[row_idx, method_idx, rep] = summary.decline_pp
                    summaries[(rows[row_idx][0], methods[method_idx].name, rep)] = summary
                    if progress is not None:
                        progress(len(summaries), values.size)
    table = ResultTable(
        row_names=tuple(r[0] for r in rows),
        method_names=tuple(m.name for m in methods),
        values=values,
    )
    return BenchResult(table=table, summaries=summaries)
