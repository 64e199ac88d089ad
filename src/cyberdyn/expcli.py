"""Declarative experiment runner and command-line interface.

Experiments are described by plain-text spec files (INI-style sections, see
``SPEC_FORMAT``) so that every run is diffable and reproducible. The bundled
specs reproduce the validation studies at desk scale; ``run_experiment``
executes a spec and writes CSV outputs plus a JSON manifest whose per-output
checksums are identical across reruns of the same spec and seed.

Exit codes: 0 success, 2 spec/parameter validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from . import combat as combat_mod
from ._csv import write_csv
from .binom_approx import ApproxModel, critical_nu
from .graphgen import (
    Graph,
    dmin_for_fixed_variance,
    gen_chung_lu,
    gen_clustered,
    gen_er,
    largest_component,
    load_graph,
    powerlaw_degree_sequence,
    save_graph,
)
from .markov import engine as markov_engine, save_ensemble_csv, simulate_ensemble, split_seed
from .meanfield import integrate, save_trajectory_csv
from .metrics import relative_error_report
from .thresholds import (
    StrategicSampler,
    alpha_threshold,
    beta_threshold,
    estimate_sigma_markov,
    h,
    save_threshold_report_csv,
    strategic_b0,
    strategic_thresholds,
)

__all__ = [
    "SpecError",
    "ExperimentError",
    "ExperimentSpec",
    "RunManifest",
    "parse_spec",
    "spec_to_text",
    "load_spec",
    "validate_spec",
    "bundled_spec_names",
    "bundled_spec_text",
    "run_experiment",
    "main",
]

OUTPUT_ROOT_ENV = "CYBERDYN_OUT"

# Table entries call the library through a lambda or a def, which looks the
# function up at call time, so whatever replaces ``expcli.gen_er`` sees the call.


class _Kind(NamedTuple):
    sections: tuple  # the sections it reads besides [experiment]; any other is an error
    run: Callable  # (spec, out, workers, outputs, graph_hashes), writing the outputs


_KINDS = {  # the runners are defined below
    "dynamics": _Kind(("graph:NAME", "combat", "init"), lambda *a: _run_dynamics(*a)),
    "sigma_markov": _Kind(("graph:NAME", "combat", "init", "sweep", "levels"),
                          lambda *a: _run_sigma_markov(*a)),
    "h_curve": _Kind(("combat", "sweep", "curve"), lambda *a: _run_h_curve(*a)),
    "re_sweep": _Kind(("graph:NAME", "combat", "init", "sweep"), lambda *a: _run_re_sweep(*a)),
}


class _Generator(NamedTuple):
    keys: tuple  # the keys its recipe needs; a sweep may supply gamma or p
    build: Callable  # (params, seed) -> Graph
    center: Callable = lambda params, sigma: sigma  # strategic grid centre for threshold sigma


def _giant_chung_lu(n, gamma, d_min, d_max, seed) -> Graph:
    """Sparse power-law recipes keep only their giant component: tiny
    disconnected components would freeze in their initial color and block
    the absorption-based experiments."""
    seq = powerlaw_degree_sequence(n, gamma, d_min, d_max)
    return largest_component(gen_chung_lu(seq, seed=seed))


def _fixed_variance(p: dict, seed) -> Graph:
    d_min = dmin_for_fixed_variance(p["dvar"], p["r"], p["gamma"])
    return _giant_chung_lu(p["n"], p["gamma"], d_min, p["r"] * d_min, seed)


_GENERATORS = {
    "er": _Generator(("n", "p"), lambda p, seed: gen_er(p["n"], p["p"], seed)),
    "powerlaw": _Generator(
        ("n", "gamma", "d_min", "d_max"),
        lambda p, seed: _giant_chung_lu(p["n"], p["gamma"], p["d_min"], p["d_max"], seed),
        # d_min = d_max gives constant degrees, and h(z, gamma) -> 1 as z -> 1
        lambda p, sigma: sigma if p["d_max"] == p["d_min"]
        else sigma * h(p["d_max"] / p["d_min"], p["gamma"]),
    ),
    "powerlaw_fixed_variance": _Generator(
        ("n", "r", "dvar", "gamma"), _fixed_variance, lambda p, sigma: sigma * h(p["r"], p["gamma"])
    ),
    "clustered": _Generator(
        ("sizes", "p_in"), lambda p, seed: gen_clustered(p["sizes"], p["p_in"], p.get("p_out", 0.0), seed)
    ),
    "file": _Generator(("path",), lambda p, seed: load_graph(p["path"])),
}
_GRAPH_SWEEPS = ("gamma", "p")  # sweep keys that go to every graph, rebuilt per value


class SpecError(ValueError):
    """Spec validation failure; the message starts with the field path."""


class ExperimentError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass
class ExperimentSpec:
    name: str
    kind: str
    horizon: float
    dt: float
    runs: int
    seed: int
    graphs: list = field(default_factory=list)  # [(name, {param: value})]
    combat: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)
    sweep: Optional[tuple] = None  # (key, [values])
    levels_cfg: dict = field(default_factory=dict)
    curve: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Spec schema: one table drives parsing, serialization, validation and help


def _list(kind):
    def parse(raw: str) -> list:
        out = [kind(part) for part in raw.split(",") if part.strip()]
        if not out:
            raise ValueError("empty list")
        return out

    return parse


def _number(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not finite")
    return value


_TYPES = {
    "text": str.strip,
    "int": int,
    "number": _number,
    "int list": _list(int),
    "number list": _list(_number),
    "name list": lambda raw: [part.strip() for part in raw.split(",") if part.strip()],
}

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    name: str
    type: str  # a _TYPES entry
    default: object = None  # raw text parsed like input, _REQUIRED, or None (optional)
    check: tuple = ()  # (predicate on the value or on each list entry, rule text)
    unless: Optional[str] = None  # the default applies only while this key is absent


def _one_of(*options):
    return (lambda v: v in options, "one of " + "|".join(options))


_POSITIVE = (lambda v: v > 0, "> 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
_PROBABILITY = (lambda v: 0 < v <= 1, "in (0, 1]")

# spec_to_text writes keys in table order, and every manifest hashes that
# text: after generator and family the keys stay alphabetical so the hashes
# of existing specs do not change.
_SCHEMA = {
    "experiment": (
        _Key("name", "text", _REQUIRED, (bool, "non-empty")),
        _Key("kind", "text", _REQUIRED, _one_of(*_KINDS)),
        _Key("horizon", "number", _REQUIRED, _POSITIVE),
        _Key("dt", "number", "0.01", _PROBABILITY),
        _Key("runs", "int", "50", (lambda v: v >= 1, ">= 1")),
        _Key("seed", "int", "0"),
    ),
    "graph:NAME": (
        _Key("generator", "text", _REQUIRED, _one_of(*_GENERATORS)),
        _Key("d_max", "number", check=_POSITIVE),
        _Key("d_min", "number", check=_POSITIVE),
        _Key("dvar", "number", check=_POSITIVE),
        _Key("gamma", "number", check=_POSITIVE),
        _Key("n", "int", check=(lambda v: v >= 2, ">= 2")),
        _Key("p", "number", check=_PROBABILITY),
        _Key("p_in", "number", check=_PROBABILITY),
        _Key("p_out", "number", check=(lambda v: v >= 0, ">= 0")),
        _Key("path", "text"),
        _Key("r", "number", check=(lambda v: v > 1, "> 1")),
        _Key("sizes", "int list", check=(lambda v: v >= 1, ">= 1")),
    ),
    "combat": (
        _Key("family", "text", _REQUIRED, _one_of(*combat_mod.FAMILIES)),
        _Key("boundary_tolerance", "number"),
        _Key("exponent", "number"),
        _Key("sigma", "number"),
        _Key("tau", "number"),
    ),
    "init": (
        _Key("rules", "name list", "", _one_of("uniform", "strategic")),
        _Key("levels", "number list", check=_UNIT),
        _Key("target", "text", "fraction", _one_of("fraction", "phi")),
        _Key("phi_band", "number", check=_POSITIVE),
    ),
    "sweep": (
        _Key("gamma", "number list", check=_POSITIVE),
        _Key("p", "number list", check=_PROBABILITY),
        _Key("sigma", "number list", check=(lambda v: 0 < v < 1, "in (0, 1)")),
    ),
    "levels": (
        _Key("levels", "number list", check=_UNIT),
        _Key("span", "number", "0.12", _POSITIVE, unless="levels"),
        _Key("step", "number", "0.01", _POSITIVE, unless="levels"),
        _Key("occupancy_tol", "number", check=(lambda v: 0 <= v < 0.5, "in [0, 0.5)")),
    ),
    "curve": (_Key("z", "number", "20", (lambda v: v > 1, "> 1")),),
}


def _key_facts(key: _Key) -> str:
    facts = [key.type]
    if key.default is _REQUIRED:
        facts.append("required")
    elif key.default is not None:
        unless = f" unless {key.unless} is set" if key.unless else ""
        facts.append(f"default {key.default or '(empty)'}{unless}")
    if key.check:
        facts.append(("each " if "list" in key.type else "") + key.check[1])
    return ", ".join(facts)


SPEC_FORMAT = (
    "Spec file format (INI sections, key = value). Unknown sections and keys\n"
    "are errors (exit 2).\n"
    + "".join(
        f"\n[{section}]\n" + "".join(f"  {k.name:20s}{_key_facts(k)}\n" for k in keys)
        for section, keys in _SCHEMA.items()
    )
    + "\nRules across fields:\n"
    + "".join(
        f"  kind {name} reads [experiment], {', '.join(f'[{s}]' for s in kind.sections)}\n"
        for name, kind in _KINDS.items()
    )
    + "".join(f"  graph generator {name} needs {', '.join(g.keys)}\n" for name, g in _GENERATORS.items())
    + "  a [sweep] holds one key: gamma or p goes to every graph, whose generator\n"
    "  must take it, and each graph is built once per value; sigma replaces only\n"
    "  combat.sigma; d_min <= d_max; p_out < p_in; [combat] must suit the family\n"
    "  (with each swept sigma); dynamics and re_sweep need one init rule and init\n"
    "  levels; re_sweep takes one graph; sigma_markov needs init rules and [levels]\n"
    "  with either levels or span/step, giving each case at least two levels;\n"
    "  h_curve and re_sweep need sweep.gamma; h_curve needs combat.sigma; re_sweep\n"
    "  takes the uniform rule; target = phi and phi_band need dynamics with\n"
    "  rules = strategic; outside h_curve, output names carry each init level,\n"
    "  init rule and sweep value (numbers as printed by %g), so no two of them\n"
    "  may print alike\n"
)


def _schema(section: str) -> tuple:
    keys = _SCHEMA.get("graph:NAME" if section.startswith("graph:") else section)
    if keys is None:
        raise SpecError(f"{section}: unknown section")
    return keys


def _parse_value(path: str, key: _Key, raw: str):
    try:
        return _TYPES[key.type](raw)
    except ValueError:
        raise SpecError(f"{path}: expected {key.type}, got {raw!r}") from None


def _check_value(path: str, key: _Key, value) -> None:
    entries = value if isinstance(value, list) else [value]
    if key.check and not all(key.check[0](v) for v in entries):
        what = "entries must be" if isinstance(value, list) else "must be"
        raise SpecError(f"{path}: {what} {key.check[1]}, got {value!r}")


def _parse_section(section: str, items) -> dict:
    keys = _schema(section)
    by_name = {k.name: k for k in keys}
    values = {}
    for name, raw in items:
        key = by_name.get(name)
        if key is None:
            raise SpecError(f"{section}.{name}: unknown key")
        values[name] = _parse_value(f"{section}.{name}", key, raw)
    for key in keys:
        if key.name in values:
            continue
        if key.default is _REQUIRED:
            raise SpecError(f"{section}.{key.name}: missing")
        if key.default is not None and key.unless not in values:
            values[key.name] = _parse_value(f"{section}.{key.name}", key, key.default)
    return values


def _defaulted(kind: str) -> list:
    """The sections ``kind`` reads whose every key has a default. The parser
    fills such a section in when the text leaves it out, so a spec and its
    spelled-out twin hash alike and the defaults live in the table alone."""
    read = _KINDS[kind].sections if kind in _KINDS else ()
    return [s for s in read if all(k.default not in (None, _REQUIRED) for k in _SCHEMA[s])]


def parse_spec(text: str) -> ExperimentSpec:
    """Parse spec text; raises SpecError with a field path on bad input."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"spec syntax: {exc}") from None
    if "experiment" not in cp:
        raise SpecError("experiment: section missing")
    sections = {name: _parse_section(name, cp[name].items()) for name in cp.sections()}
    for name in _defaulted(sections["experiment"]["kind"]):
        sections.setdefault(name, _parse_section(name, ()))
    sweep = sections.get("sweep")
    if sweep is not None and len(sweep) != 1:
        raise SpecError("sweep: exactly one sweep key is allowed")
    return ExperimentSpec(
        **sections["experiment"],
        graphs=[(s[len("graph:"):], v) for s, v in sections.items() if s.startswith("graph:")],
        combat=sections.get("combat", {}),
        init=sections.get("init", {}),
        sweep=next(iter(sweep.items())) if sweep else None,
        levels_cfg=sections.get("levels", {}),
        curve=sections.get("curve", {}),
    )


def _sections(spec: ExperimentSpec):
    """(section, {key: value}) for every section, in canonical order."""
    yield "experiment", {k.name: getattr(spec, k.name) for k in _SCHEMA["experiment"]}
    for gname, params in spec.graphs:
        yield f"graph:{gname}", params
    yield "combat", spec.combat
    yield "init", spec.init
    yield "sweep", dict([spec.sweep]) if spec.sweep else {}
    yield "levels", spec.levels_cfg
    yield "curve", spec.curve


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def spec_to_text(spec: ExperimentSpec) -> str:
    """Canonical serialization; parse(spec_to_text(s)) reproduces s."""
    return "\n".join(
        f"[{section}]\n"
        + "".join(f"{k.name} = {_fmt(values[k.name])}\n" for k in _schema(section) if k.name in values)
        for section, values in _sections(spec)
        if values
    )


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return parse_spec(fh.read())


# ---------------------------------------------------------------------------
# Validation


def validate_spec(spec: ExperimentSpec) -> None:
    """Full semantic validation; raises SpecError naming the field.

    Every key is checked against its table row first; the rules below that
    are the ones spanning several fields.
    """
    for section, values in _sections(spec):
        if not values:
            continue
        keys = {k.name: k for k in _schema(section)}
        for name, value in values.items():
            key, path = keys.get(name), f"{section}.{name}"
            if key is None:
                raise SpecError(f"{path}: unknown key")
            # a spec built in Python passes the converter spec text goes through
            if _parse_value(path, key, _fmt(value)) != value:
                raise SpecError(f"{path}: expected {key.type}, got {value!r}")
            _check_value(path, key, value)
        for key in keys.values():
            if key.default is _REQUIRED and key.name not in values:
                raise SpecError(f"{section}.{key.name}: missing")
        read = ("experiment", *_KINDS[spec.kind].sections)
        if ("graph:NAME" if section.startswith("graph:") else section) not in read:
            raise SpecError(f"{section}: kind {spec.kind} does not read this section")

    sweep_key, sweep_values = spec.sweep or (None, [])
    for gname, params in spec.graphs:
        path = f"graph:{gname}"
        if sweep_key in _GRAPH_SWEEPS and sweep_key not in _GENERATORS[params["generator"]].keys:
            raise SpecError(f"sweep.{sweep_key}: generator {params['generator']} of {path} "
                            f"takes no {sweep_key}")
        _check_graph(params, lambda key: f"{path}.{key}", sweep_key)
    if spec.kind != "h_curve" and not spec.graphs:
        raise SpecError("graph: at least one graph section required")
    if not spec.combat:
        raise SpecError("combat: section required")
    for section, values in _sections(spec):
        if not values and section in _defaulted(spec.kind):
            raise SpecError(f"{section}: section required for {spec.kind}")
    # [combat] as given, then the function _variants builds for each sigma value
    sigmas = sweep_values if sweep_key == "sigma" else []
    for path, sigma in [("combat", None)] + [("sweep.sigma", v) for v in sigmas]:
        try:
            _combat(spec, sigma)
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{path}: {exc}") from None
    if spec.kind == "re_sweep" and len(spec.graphs) > 1:
        raise SpecError(f"graph:{spec.graphs[1][0]}: re_sweep takes exactly one graph section")
    rules = spec.init.get("rules", [])
    if spec.kind in ("dynamics", "re_sweep"):
        if len(rules) != 1:
            raise SpecError("init.rules: exactly one of uniform|strategic")
        if not spec.init.get("levels"):
            raise SpecError("init.levels: required")
    if "levels" in spec.levels_cfg and spec.levels_cfg.keys() & {"span", "step"}:
        raise SpecError("levels.span: set either levels or span/step, not both")
    if spec.kind == "sigma_markov":
        if not rules:
            raise SpecError("init.rules: uniform and/or strategic required")
        if not spec.levels_cfg:
            raise SpecError("levels: section required for sigma_markov")
        _check_tags("init.rules", rules, str)
        for _, _, gname, params, _, f in _variants(spec):
            for rule in rules:
                if len(_grid(spec, params, f, rule)) < 2:
                    raise SpecError(f"levels: the {rule} grid of graph:{gname} has fewer "
                                    "than two levels")
    if spec.kind == "dynamics":
        _check_tags("init.levels", spec.init["levels"])
    if spec.kind != "h_curve":
        _check_tags(f"sweep.{sweep_key}", sweep_values)
    if spec.kind in ("h_curve", "re_sweep") and sweep_key != "gamma":
        raise SpecError(f"sweep.gamma: required for {spec.kind}")
    if spec.kind == "h_curve" and "sigma" not in spec.combat:
        raise SpecError("combat.sigma: required for h_curve")
    if spec.kind == "re_sweep" and rules == ["strategic"]:
        raise SpecError("init.rules: re_sweep starts every node at the uniform level")
    if not (spec.kind == "dynamics" and rules == ["strategic"]):
        if spec.init.get("target") == "phi":
            raise SpecError("init.target: phi needs kind = dynamics with rules = strategic")
        if "phi_band" in spec.init:
            raise SpecError("init.phi_band: needs kind = dynamics with rules = strategic")


def _check_graph(params: dict, field, supplied: Optional[str] = None) -> None:
    """The rules across one graph's keys. ``field(key)`` names a key in the
    error; ``supplied`` is a key a sweep gives the graph."""
    for key in _GENERATORS[params["generator"]].keys:
        if key not in params and key != supplied:
            raise SpecError(f"{field(key)}: missing")
    if params.get("d_min", 0.0) > params.get("d_max", np.inf):
        raise SpecError(f"{field('d_min')}: must be <= d_max")
    if params.get("p_out", 0.0) >= params.get("p_in", np.inf):
        raise SpecError(f"{field('p_out')}: must be < p_in")


# ---------------------------------------------------------------------------
# Bundled specs


def bundled_spec_names() -> list:
    root = resources.files("cyberdyn").joinpath("specs")
    return sorted(p.name[: -len(".spec")] for p in root.iterdir() if p.name.endswith(".spec"))


def bundled_spec_text(name: str) -> str:
    path = resources.files("cyberdyn").joinpath("specs").joinpath(f"{name}.spec")
    try:
        return path.read_text()
    except FileNotFoundError:
        raise SpecError(f"unknown bundled spec {name!r}") from None


def _resolve_spec(ref: str) -> ExperimentSpec:
    if os.path.exists(ref):
        return load_spec(ref)
    return parse_spec(bundled_spec_text(ref))


# ---------------------------------------------------------------------------
# Execution


@dataclass
class RunManifest:
    spec_name: str
    spec_sha256: str
    tool_version: str
    seed: int
    wall_clock_sec: float
    graph_hashes: dict
    outputs: dict  # filename -> sha256
    markov_engine: str  # markov.engine(): the library both engines load, "kernel" or "numpy"

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def _combat(spec: ExperimentSpec, sigma: Optional[float] = None):
    """The [combat] function, or with only its sigma replaced by a sweep value."""
    params = spec.combat if sigma is None else {**spec.combat, "sigma": sigma}
    return combat_mod.from_params(**params)


def _variants(spec: ExperimentSpec):
    """Yield ``(gi, si, gname, params, value, f)`` for each graph under each
    sweep value: the graph's params with the value applied and the combat
    function for the value (``value`` is None without a sweep).
    """
    key, values = spec.sweep or (None, [None])
    for gi, (gname, params) in enumerate(spec.graphs):
        for si, value in enumerate(values):
            params_v = {**params, key: value} if key in _GRAPH_SWEEPS else params
            yield gi, si, gname, params_v, value, _combat(spec, value if key == "sigma" else None)


def _cases(spec: ExperimentSpec, graph_hashes: dict):
    """Yield ``(gi, si, gname, params, value, g, f)``: each of ``_variants``
    with the graph built from its params.

    A gamma or p sweep builds each graph once per value; any other spec builds
    each graph once and reuses it for every value. Each built graph's
    structural hash goes into ``graph_hashes``.
    """
    key = spec.sweep[0] if spec.sweep else None
    rebuild = key in _GRAPH_SWEEPS
    for gi, si, gname, params, value, f in _variants(spec):
        if rebuild:
            stage, seed = f"graph:{gname} {key}={value:g}", 1000 + 50 * gi + si
            hash_key = f"{gname}_{key}{_level_tag(value)}"
        else:
            stage, seed, hash_key = f"graph:{gname}", 1000 + gi, gname
        if rebuild or si == 0:
            g = _stage(stage, _GENERATORS[params["generator"]].build, params,
                       split_seed(spec.seed, seed))
            graph_hashes[hash_key] = g.structural_hash()
        yield gi, si, gname, params, value, g, f


def _level_tag(value: float) -> str:
    return f"{value:g}".replace(".", "p").replace("-", "m")


def _check_tags(path: str, values: list, tag=_level_tag) -> None:
    """Output names and graph_hashes keys carry these tags, so a repeated
    tag would let one output overwrite another."""
    tags = [tag(v) for v in values]
    for i, t in enumerate(tags):
        if t in tags[:i]:
            raise SpecError(f"{path}: {values[tags.index(t)]!r} and {values[i]!r} "
                            f"share the output name tag {t!r}")


def _grid(spec: ExperimentSpec, params: dict, f, rule: str) -> np.ndarray:
    """A sigma_markov case's level grid: ``[levels] levels``, or span/step
    around the combat threshold (its strategic centre for the strategic rule)."""
    cfg = spec.levels_cfg
    if "levels" in cfg:
        return np.asarray(cfg["levels"], dtype=np.float64)
    center = 0.5 if f.threshold is None else f.threshold
    if rule == "strategic":
        center = _GENERATORS[params["generator"]].center(params, center)
    span, step = cfg["span"], cfg["step"]
    lo = max(step, center - span)
    hi = min(1.0 - step, center + span)
    n_steps = int(round((hi - lo) / step))
    return np.round(lo + step * np.arange(n_steps + 1), 10)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(f"stage {name!r} failed: {exc}") from exc


def run_experiment(spec: ExperimentSpec, out_dir, workers: int = 1) -> RunManifest:
    """Execute a validated spec, writing CSV outputs and manifest.json."""
    validate_spec(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # An earlier manifest would vouch for outputs this run replaces, and the
    # outputs it lists that this run does not write would stay unlisted.
    manifest = out / "manifest.json"
    try:
        stale = list(json.loads(manifest.read_text())["outputs"])
    except (OSError, ValueError, TypeError, KeyError):
        stale = []
    for name in stale:  # plain file names only, never a path elsewhere
        if isinstance(name, str) and name == os.path.basename(name) and (out / name).is_file():
            (out / name).unlink()
    manifest.unlink(missing_ok=True)
    t0 = time.monotonic()
    outputs: dict = {}
    graph_hashes: dict = {}

    _KINDS[spec.kind].run(spec, out, workers, outputs, graph_hashes)

    manifest = RunManifest(
        spec_name=spec.name,
        spec_sha256=hashlib.sha256(spec_to_text(spec).encode()).hexdigest(),
        tool_version=__version__,
        seed=spec.seed,
        wall_clock_sec=round(time.monotonic() - t0, 3),
        graph_hashes=graph_hashes,
        outputs={k: hashlib.sha256((out / k).read_bytes()).hexdigest() for k in sorted(outputs)},
        markov_engine=markov_engine(),
    )
    (out / "manifest.json.tmp").write_text(manifest.to_json())
    os.replace(out / "manifest.json.tmp", out / "manifest.json")
    return manifest


def _init_b0(spec: ExperimentSpec, g: Graph, level: float):
    """(B0 vector for the mean-field run, ensemble init sampler or None)."""
    rule = spec.init["rules"][0]
    if rule == "uniform":
        return np.full(g.n, level), None
    if spec.init.get("target") == "phi":
        b0 = strategic_b0(g, target_phi=level).B0
        return b0, StrategicSampler(g, target_phi=level, phi_band=spec.init.get("phi_band"))
    return strategic_b0(g, target_fraction=level).B0, None


def _meanfield_and_ensemble(spec, g, f, B0, label, master_seed, workers, sampler=None):
    """Both models from one initial state, and their relative-error report."""
    traj = _stage(f"meanfield {label}", integrate, g, f, B0, spec.horizon, dt=spec.dt,
                  sample_every=10)
    ens = _stage(f"ensemble {label}", simulate_ensemble, g, f, B0, spec.horizon,
                 runs=spec.runs, dt=spec.dt, master_seed=master_seed, sample_every=10,
                 node_freq=True, workers=workers, init_sampler=sampler)
    return traj, ens, relative_error_report(ens, traj)


def _run_dynamics(spec, out, workers, outputs, graph_hashes):
    summary_rows = []
    for gi, _, gname, _, _, g, f in _cases(spec, graph_hashes):
        for li, level in enumerate(spec.init["levels"]):
            B0, sampler = _init_b0(spec, g, level)
            traj, ens, rep = _meanfield_and_ensemble(
                spec, g, f, B0, f"{gname} level={level:g}",
                split_seed(spec.seed, 2000 + 100 * gi + li), workers, sampler,
            )
            tag = f"{gname}_{_level_tag(level)}"
            save_trajectory_csv(traj, out / f"{tag}_meanfield.csv")
            save_ensemble_csv(ens, out / f"{tag}_ensemble.csv")
            outputs[f"{tag}_meanfield.csv"] = True
            outputs[f"{tag}_ensemble.csv"] = True
            summary_rows.append(
                (gname, float(level), float(traj.mean_blue[-1]), float(ens.mean_xi[-1]),
                 ens.n_absorbed_blue, ens.n_absorbed_red, rep.mean, rep.n_excluded)
            )
            del traj, ens  # free this level's snapshots before the next level runs
    write_csv(out / "summary.csv", "graph,level,final_mean_blue,final_mean_xi,"
              "n_absorbed_blue,n_absorbed_red,mean_RE,excluded_nodes", summary_rows)
    outputs["summary.csv"] = True


def _run_sigma_markov(spec, out, workers, outputs, graph_hashes):
    key = spec.sweep[0] if spec.sweep else None
    summary_rows = []
    for gi, si, gname, params, value, g, f in _cases(spec, graph_hashes):
        for rule in spec.init["rules"]:
            est = _stage(
                f"sigma_markov {gname} {rule}" + (f" {key}={value}" if key else ""),
                estimate_sigma_markov,
                g, f, _grid(spec, params, f, rule),
                init_rule=rule, runs=spec.runs, horizon=spec.horizon, dt=spec.dt,
                master_seed=split_seed(spec.seed, 3000 + 100 * gi + 10 * si),
                workers=workers,
                occupancy_tol=spec.levels_cfg.get("occupancy_tol", 0.0),
            )
            tag = f"{gname}_{rule}" + (f"_{key}{_level_tag(value)}" if key else "")
            save_threshold_report_csv(est, out / f"{tag}_report.csv")
            outputs[f"{tag}_report.csv"] = True
            summary_rows.append(
                (gname, rule, key, None if value is None else float(value),
                 est.a1, est.b1, est.sigma_markov,
                 "inconclusive" if est.inconclusive else "ok")
            )
    write_csv(out / "summary.csv", "graph,rule,sweep_key,sweep_value,a1,b1,sigma_markov,status",
              summary_rows)
    outputs["summary.csv"] = True


def _run_h_curve(spec, out, workers, outputs, graph_hashes):  # analytic: no graph, no runs
    sigma = spec.combat["sigma"]
    z = spec.curve["z"]
    rows = []
    for gamma in spec.sweep[1]:
        st = strategic_thresholds(z, gamma, sigma)
        rows.append((float(gamma), h(z, gamma), st.alpha, st.beta, st.gap, st.ratio))
    write_csv(out / "h_curve.csv", "gamma,h,alpha_threshold,beta_threshold,gap,ratio", rows)
    outputs["h_curve.csv"] = True


def _run_re_sweep(spec, out, workers, outputs, graph_hashes):
    level = spec.init["levels"][0]
    rows = []
    for _, si, _, _, gamma, g, f in _cases(spec, graph_hashes):
        _, _, rep = _meanfield_and_ensemble(
            spec, g, f, np.full(g.n, level), f"gamma={gamma:g}",
            split_seed(spec.seed, 4000 + si), workers,
        )
        rows.append((float(gamma), float(g.degrees.mean()), float(rep.mean), int(rep.n_excluded)))
    write_csv(out / "relative_error.csv", "gamma,avg_degree,mean_RE,excluded_nodes", rows)
    outputs["relative_error.csv"] = True


# ---------------------------------------------------------------------------
# CLI

# graph gen takes the [graph:NAME] keys as flags; the file generator only
# reads a graph, so neither it nor its path is offered.
_GRAPH_FLAGS = [k for k in _SCHEMA["graph:NAME"] if k.name not in ("generator", "path")]


def _output_dir(args, spec_name: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUTPUT_ROOT_ENV, "cyberdyn_out")
    return Path(root) / spec_name


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers: must be >= 1, got {args.workers!r}")
    spec = _resolve_spec(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    manifest = run_experiment(spec, _output_dir(args, spec.name), workers=args.workers)
    print(f"{spec.name}: wrote {len(manifest.outputs)} outputs in {manifest.wall_clock_sec}s")
    return 0


def _cmd_list(args) -> int:
    for name in bundled_spec_names():
        spec = parse_spec(bundled_spec_text(name))
        print(f"{name:14s} kind={spec.kind:12s} runs={spec.runs}")
    return 0


def _cmd_describe(args) -> int:
    spec = _resolve_spec(args.spec)
    validate_spec(spec)
    sys.stdout.write(spec_to_text(spec))
    return 0


def _cmd_validate(args) -> int:
    spec = _resolve_spec(args.spec)
    validate_spec(spec)
    print(f"{spec.name}: valid")
    return 0


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _cmd_graph_gen(args) -> int:
    # The flags are the [graph:NAME] keys, read and checked as a spec's are.
    params = {"generator": args.generator}
    for key in _GRAPH_FLAGS:
        raw = getattr(args, key.name)
        if raw is not None:
            params[key.name] = _parse_value(_flag(key.name), key, raw)
            _check_value(_flag(key.name), key, params[key.name])
    _check_graph(params, _flag)
    g = _GENERATORS[args.generator].build(params, args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges} hash={g.structural_hash()[:12]}")
    return 0


def _cmd_thresholds(args) -> int:
    if not 0 < args.sigma < 1:
        raise ValueError(f"--sigma: must be in (0, 1), got {args.sigma!r}")
    g = load_graph(args.graph)
    lines = [f"alpha_threshold = {alpha_threshold(g.degrees, args.sigma)!r}",
             f"beta_threshold  = {beta_threshold(g.degrees, args.sigma)!r}",
             f"critical_nu     = {critical_nu(ApproxModel.from_graph(g, args.sigma))!r}"]
    if args.z is not None and args.gamma is not None:
        lines.append(f"h(z, gamma)     = {h(args.z, args.gamma)!r}")
    print("\n".join(lines))  # all or nothing: a bad value prints no partial report
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberdyn",
        description="Attack-defense dynamics simulator and analysis toolkit.",
        epilog=SPEC_FORMAT,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a bundled or file spec")
    p_run.add_argument("spec", help="bundled spec name or path to a spec file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--workers", type=int, default=1,
                       help="runs stepped at once (default 1): threads when the compiled "
                            "kernel steps them, else serial; outputs do not depend on it")
    p_run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_run.set_defaults(fn=_cmd_run)

    sub.add_parser("list", help="list bundled specs").set_defaults(fn=_cmd_list)

    p_desc = sub.add_parser("describe", help="print a spec in canonical form")
    p_desc.add_argument("spec")
    p_desc.set_defaults(fn=_cmd_describe)

    p_val = sub.add_parser("validate", help="validate a spec without running")
    p_val.add_argument("spec")
    p_val.set_defaults(fn=_cmd_validate)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gen = graph_sub.add_parser("gen", help="generate and save a graph from [graph:NAME] keys")
    p_gen.add_argument("generator", choices=[name for name in _GENERATORS if name != "file"])
    for key in _GRAPH_FLAGS:
        p_gen.add_argument(_flag(key.name), dest=key.name, help=_key_facts(key))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_graph_gen)

    p_thr = sub.add_parser("thresholds", help="analytic occupation thresholds and the "
                           "binomial-approximation critical value")
    p_thr.add_argument("--graph", required=True, help="edge-list file")
    p_thr.add_argument("--sigma", type=float, required=True)
    p_thr.add_argument("--z", type=float, default=None)
    p_thr.add_argument("--gamma", type=float, default=None)
    p_thr.set_defaults(fn=_cmd_thresholds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
