"""Correctness checks on the files one pass wrote.

A run is identified by its CSV group key (policy, T, rep, seed).  Every
check returns the set of failing (policy, T, rep) keys plus one message per
failure, so that ``fail_frac`` counts runs and each failure names its run.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import defaultdict

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
OUTPUTS = ("results.csv", "summary.json")


def read_outputs(pass_dir: str) -> dict:
    """Bytes of the pass's CSV and summary."""
    out = {}
    for name in OUTPUTS:
        with open(os.path.join(pass_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _groups(csv_bytes: bytes) -> dict:
    """CSV rows grouped by run: (policy, T, rep) -> (seed, [rows])."""
    reader = csv.reader(io.StringIO(csv_bytes.decode()))
    next(reader)
    groups = defaultdict(list)
    seeds = {}
    for policy, _instance, T, rep, seed, t, reg, inf in reader:
        key = (policy, int(T), int(rep))
        seeds[key] = int(seed)
        groups[key].append((int(t), float(reg), int(inf)))
    return {key: (seeds[key], rows) for key, rows in groups.items()}


def _name(key, seed) -> str:
    policy, T, rep = key
    return f"policy={policy} T={T} rep={rep} seed={seed}"


def expected_keys(cfg: dict) -> set:
    return {
        (p.get("label", p["name"]), T, rep)
        for p in cfg["policies"]
        for T in cfg["horizons"]
        for rep in range(cfg["reps"])
    }


def invariants(outputs: dict, cfg: dict) -> tuple[set, list]:
    """Checks that hold on every seed.

    Each run is present and ends at its horizon; cumulative regret is
    non-decreasing and >= 0; the inferior count is non-decreasing and
    <= t; the oracle's regret is exactly 0; the summary carries the seed.
    """
    failed, messages = set(), []
    groups = _groups(outputs["results.csv"])
    for key in sorted(expected_keys(cfg) - groups.keys()):
        failed.add(key)
        messages.append(f"{_name(key, '?')}: no CSV rows")
    for key, (seed, rows) in sorted(groups.items()):
        problems = []
        ts = [t for t, _, _ in rows]
        if ts != sorted(set(ts)) or ts[-1] != key[1]:
            problems.append(f"checkpoints {ts} do not end at T")
        prev_reg, prev_inf = 0.0, 0
        for t, reg, inf in rows:
            if not reg >= prev_reg:
                problems.append(f"cum_regret {reg!r} at t={t} is negative or decreasing")
            if not prev_inf <= inf <= t:
                problems.append(f"inferior_count {inf} at t={t} is decreasing or above t")
            if key[0] == "oracle" and reg != 0.0:
                problems.append(f"oracle cum_regret {reg!r} at t={t} is not 0")
            prev_reg, prev_inf = reg, inf
        if problems:
            failed.add(key)
            more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
            messages.append(f"{_name(key, seed)}: {problems[0]}{more}")
    summary = json.loads(outputs["summary.json"])
    if summary["config"]["base_seed"] != cfg["base_seed"]:
        failed |= expected_keys(cfg)
        messages.append(f"summary base_seed {summary['config']['base_seed']} != {cfg['base_seed']}")
    return failed, messages


def same_outputs(outputs: dict, expected: dict, cfg: dict, what: str) -> tuple[set, list]:
    """Byte-for-byte comparison; each differing run is named."""
    failed, messages = set(), []
    if outputs["results.csv"] != expected["results.csv"]:
        got, want = _groups(outputs["results.csv"]), _groups(expected["results.csv"])
        for key in sorted(got.keys() | want.keys()):
            if got.get(key) != want.get(key):
                failed.add(key)
                messages.append(f"{_name(key, (got.get(key) or want[key])[0])}: CSV rows differ from {what}")
        if not failed:
            failed |= expected_keys(cfg)
            messages.append(f"results.csv differs from {what} outside the rows (header or quoting)")
    if outputs["summary.json"] != expected["summary.json"]:
        got = {(g["policy"], g["T"]): g for g in json.loads(outputs["summary.json"])["groups"]}
        want = {(g["policy"], g["T"]): g for g in json.loads(expected["summary.json"])["groups"]}
        bad = {k for k in got.keys() | want.keys() if got.get(k) != want.get(k)}
        keys = {k for k in expected_keys(cfg) if k[:2] in bad} or expected_keys(cfg)
        failed |= keys
        messages.append(
            f"summary.json differs from {what} in groups {sorted(bad) or 'outside the groups'}"
        )
    return failed, messages


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, workload)


def load_reference(workload: str) -> dict:
    return read_outputs(reference_path(workload))
