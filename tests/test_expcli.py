import dataclasses
import errno
import hashlib
import json

import pytest

from cyberdyn import expcli, markov
from cyberdyn.binom_approx import ApproxModel, critical_nu
from cyberdyn.combat import TypeICombat
from cyberdyn.expcli import (
    ExperimentError,
    SpecError,
    bundled_spec_names,
    bundled_spec_text,
    main,
    parse_spec,
    run_experiment,
    spec_to_text,
    validate_spec,
)
from cyberdyn.graphgen import gen_er, load_graph, save_graph
from cyberdyn.markov import split_seed
from cyberdyn.thresholds import (
    alpha_threshold,
    beta_threshold,
    estimate_sigma_markov,
    h,
    save_threshold_report_csv,
)
from conftest import WORKERS
from test_perfbench_contract import _load_spans

TINY_DYNAMICS = """
[experiment]
name = tiny
kind = dynamics
horizon = 3
dt = 0.01
runs = 4
seed = 99

[graph:er]
generator = er
n = 120
p = 0.1

[combat]
family = type1
sigma = 0.4

[init]
rules = uniform
levels = 0.6, 0.2
target = fraction
"""

TINY_SIGMA = """
[experiment]
name = tinysigma
kind = sigma_markov
horizon = 12
dt = 0.01
runs = 6
seed = 7

[graph:er]
generator = er
n = 150
p = 0.15

[combat]
family = type1
sigma = 0.5

[init]
rules = uniform
target = fraction

[levels]
levels = 0.1, 0.5, 0.9
"""

TINY_RE = """
[experiment]
name = tinyre
kind = re_sweep
horizon = 4
dt = 0.01
runs = 4
seed = 13

[graph:family]
generator = powerlaw_fixed_variance
n = 200
r = 8
dvar = 25

[combat]
family = type1
sigma = 0.3333333333333333

[init]
rules = uniform
levels = 0.5
target = fraction

[sweep]
gamma = 1.5, 4.0
"""


# ---------------------------------------------------------------------------
# Parsing, serialization, validation


def test_bundled_specs_present_and_valid():
    names = bundled_spec_names()
    for expected in ("fig4", "fig5a", "fig5b", "fig7a", "fig7b", "fig8", "fig9", "fig10"):
        assert expected in names
    for name in names:
        spec = parse_spec(bundled_spec_text(name))
        validate_spec(spec)


def test_spec_round_trip_lossless():
    for name in bundled_spec_names():
        spec = parse_spec(bundled_spec_text(name))
        assert parse_spec(spec_to_text(spec)) == spec
    spec = parse_spec(TINY_DYNAMICS)
    assert parse_spec(spec_to_text(spec)) == spec


def test_invalid_probability_names_field_path():
    bad = TINY_DYNAMICS.replace("p = 0.1", "p = 1.5")
    with pytest.raises(SpecError, match=r"graph:er\.p"):
        validate_spec(parse_spec(bad))


def test_missing_section_reported():
    with pytest.raises(SpecError, match="experiment"):
        parse_spec("[graph:er]\ngenerator = er\n")


def test_invalid_kind_and_levels():
    bad = TINY_DYNAMICS.replace("kind = dynamics", "kind = sorcery")
    with pytest.raises(SpecError, match="kind"):
        validate_spec(parse_spec(bad))
    bad = TINY_DYNAMICS.replace("levels = 0.6, 0.2", "levels = 0.6, 1.2")
    with pytest.raises(SpecError, match="levels"):
        validate_spec(parse_spec(bad))


def test_describe_fig9_shows_grid_runs_and_rules(capsys):
    assert main(["describe", "fig9"]) == 0
    out = capsys.readouterr().out
    assert "runs = 50" in out
    assert "uniform" in out and "strategic" in out
    assert "span" in out and "step" in out


def test_validate_bundled_specs_cli(capsys):
    for name in bundled_spec_names():
        assert main(["validate", name]) == 0


def test_unknown_spec_exits_2(capsys):
    assert main(["validate", "no_such_spec"]) == 2
    assert main(["run", "no_such_spec"]) == 2


def test_list_cli(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "kind=dynamics" in out


def _insert_after(text, line, extra):
    assert line in text
    return text.replace(line, f"{line}\n{extra}", 1)


def _without(text, *prefixes):
    """``text`` less every line that starts with one of ``prefixes``."""
    kept = [line for line in text.splitlines() if not line.startswith(prefixes)]
    assert len(kept) < len(text.splitlines())
    return "\n".join(kept) + "\n"


FIG7A = bundled_spec_text("fig7a")

BAD_SPECS = {
    "unknown section": (TINY_DYNAMICS + "\n[extras]\nfoo = 1\n", "extras: unknown section"),
    "experiment key": (TINY_DYNAMICS.replace("runs = 4", "runz = 2"), "experiment.runz: unknown key"),
    "graph key": (_insert_after(TINY_DYNAMICS, "p = 0.1", "q = 0.3"), "graph:er.q: unknown key"),
    "init key": (
        _insert_after(TINY_DYNAMICS, "target = fraction", "occupancy_tolerance = 0.1"),
        "init.occupancy_tolerance: unknown key",
    ),
    "levels key": (
        _insert_after(TINY_SIGMA, "levels = 0.1, 0.5, 0.9", "occupancy_tolerance = 0.1"),
        "levels.occupancy_tolerance: unknown key",
    ),
    "dt": (TINY_DYNAMICS.replace("dt = 0.01", "dt = 2"), "experiment.dt: must be in (0, 1]"),
    "occupancy_tol": (
        _insert_after(TINY_SIGMA, "levels = 0.1, 0.5, 0.9", "occupancy_tol = 0.7"),
        "levels.occupancy_tol: must be in [0, 0.5)",
    ),
    "phi_band": (
        _insert_after(TINY_DYNAMICS, "target = fraction", "phi_band = -1"),
        "init.phi_band: must be > 0",
    ),
    "levels and span": (
        _insert_after(TINY_SIGMA, "levels = 0.1, 0.5, 0.9", "span = 0.1"),
        "levels.span: set either levels or span/step",
    ),
    # grids estimate_sigma_markov would refuse only after the graphs are built
    "one grid level": (
        TINY_SIGMA.replace("levels = 0.1, 0.5, 0.9", "levels = 0.5"),
        "levels: the uniform grid of graph:er has fewer than two levels",
    ),
    "span below step": (
        TINY_SIGMA.replace("levels = 0.1, 0.5, 0.9", "span = 0.001\nstep = 0.01"),
        "levels: the uniform grid of graph:er has fewer than two levels",
    ),
    # values whose output name tags repeat: one output would overwrite another
    "dynamics levels share a tag": (
        TINY_DYNAMICS.replace("levels = 0.6, 0.2", "levels = 0.6, 0.6000001"),
        "init.levels: 0.6 and 0.6000001 share the output name tag '0p6'",
    ),
    "sweep values share a tag": (
        TINY_SIGMA + "\n[sweep]\nsigma = 0.3, 0.3\n",
        "sweep.sigma: 0.3 and 0.3 share the output name tag '0p3'",
    ),
    "sigma_markov rule twice": (
        TINY_SIGMA.replace("rules = uniform", "rules = uniform, uniform"),
        "init.rules: 'uniform' and 'uniform' share the output name tag 'uniform'",
    ),
    # keys the runner would ignore: phi targets exist only for strategic
    # dynamics, and re_sweep always starts from a uniform level
    "phi target uniform": (
        TINY_DYNAMICS.replace("target = fraction", "target = phi"),
        "init.target: phi needs kind = dynamics with rules = strategic",
    ),
    "phi_band uniform": (
        _insert_after(TINY_DYNAMICS, "target = fraction", "phi_band = 0.01"),
        "init.phi_band: needs kind = dynamics with rules = strategic",
    ),
    "phi target sigma_markov": (
        TINY_SIGMA.replace("rules = uniform", "rules = strategic").replace(
            "target = fraction", "target = phi"
        ),
        "init.target: phi needs kind = dynamics with rules = strategic",
    ),
    "strategic re_sweep": (
        TINY_RE.replace("rules = uniform", "rules = strategic"),
        "init.rules: re_sweep starts every node at the uniform level",
    ),
    # sweeps the runner cannot take: a family without sigma, a second graph
    # that re_sweep would skip, and a graph key its generator does not read
    "sigma sweep type2": (
        TINY_SIGMA.replace("family = type1\nsigma = 0.5", "family = type2")
        + "\n[sweep]\nsigma = 0.3, 0.6\n",
        "sweep.sigma: TypeIICombat.__init__() got an unexpected keyword argument 'sigma'",
    ),
    "two-graph re_sweep": (
        TINY_RE + "\n[graph:second]\ngenerator = powerlaw_fixed_variance\n"
        "n = 200\nr = 8\ndvar = 25\n",
        "graph:second: re_sweep takes exactly one graph section",
    ),
    "gamma sweep over er": (
        TINY_SIGMA + "\n[sweep]\ngamma = 2.0, 3.0\n",
        "sweep.gamma: generator er of graph:er takes no gamma",
    ),
    "p sweep over powerlaw": (
        TINY_SIGMA.replace(
            "generator = er\nn = 150\np = 0.15",
            "generator = powerlaw\nn = 150\ngamma = 2.5\nd_min = 2\nd_max = 20",
        ) + "\n[sweep]\np = 0.1, 0.2\n",
        "sweep.p: generator powerlaw of graph:er takes no p",
    ),
    # sections the kind never reads
    "sweep in dynamics": (
        TINY_DYNAMICS + "\n[sweep]\ngamma = 2.0\n",
        "sweep: kind dynamics does not read this section",
    ),
    "levels in dynamics": (
        TINY_DYNAMICS + "\n[levels]\nlevels = 0.5\n",
        "levels: kind dynamics does not read this section",
    ),
    "curve in dynamics": (
        TINY_DYNAMICS + "\n[curve]\nz = 10\n",
        "curve: kind dynamics does not read this section",
    ),
    "graph in h_curve": (
        FIG7A + "\n[graph:er]\ngenerator = er\nn = 100\np = 0.1\n",
        "graph:er: kind h_curve does not read this section",
    ),
    "init in h_curve": (
        FIG7A + "\n[init]\nrules = uniform\n",
        "init: kind h_curve does not read this section",
    ),
    "levels in h_curve": (
        FIG7A + "\n[levels]\nspan = 0.1\n",
        "levels: kind h_curve does not read this section",
    ),
    # h_curve reads only combat.sigma, but its [combat] must still suit the family
    "h_curve unknown family": (
        FIG7A.replace("family = type1", "family = nonsense"),
        "combat.family: must be one of type1|type2|type3|type4",
    ),
    "h_curve family alias": (
        FIG7A.replace("family = type1", "family = I"),
        "combat.family: must be one of type1|type2|type3|type4, got 'I'",
    ),
    "h_curve family without sigma": (
        FIG7A.replace("family = type1", "family = type3"),
        "combat: TypeIIICombat.__init__() got an unexpected keyword argument 'sigma'",
    ),
    "h_curve boundary_tolerance": (
        _insert_after(FIG7A, "sigma = 0.5", "boundary_tolerance = -1"),
        "combat: boundary tolerance must be nonnegative",
    ),
    # rules across fields
    "graph key missing": (_without(TINY_DYNAMICS, "p = "), "graph:er.p: missing"),
    "d_min above d_max": (
        TINY_SIGMA.replace(
            "generator = er\nn = 150\np = 0.15",
            "generator = powerlaw\nn = 150\ngamma = 2.5\nd_min = 30\nd_max = 20",
        ),
        "graph:er.d_min: must be <= d_max",
    ),
    "p_out not below p_in": (
        TINY_SIGMA.replace(
            "generator = er\nn = 150\np = 0.15",
            "generator = clustered\nsizes = 75, 75\np_in = 0.1\np_out = 0.1",
        ),
        "graph:er.p_out: must be < p_in",
    ),
    "no graph": (
        _without(TINY_DYNAMICS, "[graph:er]", "generator", "n = ", "p = "),
        "graph: at least one graph section required",
    ),
    "no combat": (_without(TINY_DYNAMICS, "[combat]", "family", "sigma"), "combat: section required"),
    "two dynamics rules": (
        TINY_DYNAMICS.replace("rules = uniform", "rules = uniform, strategic"),
        "init.rules: exactly one of uniform|strategic",
    ),
    "no dynamics levels": (_without(TINY_DYNAMICS, "levels"), "init.levels: required"),
    "no sigma_markov rules": (
        _without(TINY_SIGMA, "rules"), "init.rules: uniform and/or strategic required"
    ),
    "no levels section": (
        _without(TINY_SIGMA, "[levels]", "levels"), "levels: section required for sigma_markov"
    ),
    "h_curve without sweep": (
        _without(FIG7A, "[sweep]", "gamma"), "sweep.gamma: required for h_curve"
    ),
    "h_curve without sigma": (
        FIG7A.replace("family = type1\nsigma = 0.5", "family = type2"),
        "combat.sigma: required for h_curve",
    ),
    # parse errors
    "self links": (
        TINY_SIGMA.replace(
            "generator = er\nn = 150\np = 0.15",
            "generator = powerlaw\nn = 150\ngamma = 2.5\nd_min = 2\nd_max = 20\n"
            "allow_self_links = true",
        ),
        "graph:er.allow_self_links: unknown key",
    ),
    # non-finite numbers: h_curve would divide by z - inf or write inf,nan
    # rows, and an infinite horizon would fail only after the graphs are built
    "infinite z": (FIG7A.replace("z = 20", "z = inf"), "curve.z: expected number, got 'inf'"),
    "infinite sweep value": (
        FIG7A.replace("gamma = 1.0, ", "gamma = inf, "),
        "sweep.gamma: expected number list, got 'inf, 1.2, ",
    ),
    "infinite horizon": (
        TINY_DYNAMICS.replace("horizon = 3", "horizon = inf"),
        "experiment.horizon: expected number, got 'inf'",
    ),
    "not an int": (
        TINY_DYNAMICS.replace("runs = 4", "runs = four"),
        "experiment.runs: expected int, got 'four'",
    ),
    "rule for rules": (
        TINY_DYNAMICS.replace("rules = uniform", "rule = uniform"), "init.rule: unknown key"
    ),
    "duplicate key": (_insert_after(TINY_DYNAMICS, "runs = 4", "runs = 5"), "spec syntax:"),
    "two sweep keys": (
        _insert_after(TINY_RE, "gamma = 1.5, 4.0", "p = 0.1"),
        "sweep: exactly one sweep key is allowed",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_fails_at_the_boundary(case, tmp_path, capsys):
    text, message = BAD_SPECS[case]
    with pytest.raises(SpecError) as info:
        validate_spec(parse_spec(text))
    assert str(info.value).startswith(message)

    spec_path = tmp_path / "bad.spec"
    spec_path.write_text(text)
    assert main(["validate", str(spec_path)]) == 2
    out_dir = tmp_path / "out"
    assert main(["run", str(spec_path), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"curve": {"z": float("inf")}}, "curve.z: expected number, got 'inf'"),
        ({"runs": 2.5}, "experiment.runs: expected int, got '2.5'"),
    ],
)
def test_spec_built_in_python_meets_the_text_types(changes, message):
    spec = dataclasses.replace(parse_spec(FIG7A), **changes)
    with pytest.raises(SpecError) as info:
        validate_spec(spec)
    assert str(info.value) == message


def test_strategic_grid_on_a_regular_powerlaw_is_centred_on_sigma(tmp_path):
    # d_min = d_max gives constant degrees, where h(z, gamma) -> 1 as z -> 1
    text = (
        TINY_SIGMA.replace("generator = er\nn = 150\np = 0.15",
                           "generator = powerlaw\nn = 150\ngamma = 2.5\nd_min = 6\nd_max = 6")
        .replace("rules = uniform", "rules = strategic")
        .replace("levels = 0.1, 0.5, 0.9", "span = 0.05\nstep = 0.01")
    )
    spec = parse_spec(text)
    validate_spec(spec)
    [(_, _, _, params, _, f)] = expcli._variants(spec)
    grid = expcli._grid(spec, params, f, "strategic")
    assert grid.tolist() == [round(0.45 + 0.01 * k, 10) for k in range(11)]
    assert grid[5] == f.sigma
    spec_path = tmp_path / "regular.spec"
    spec_path.write_text(text)
    assert main(["validate", str(spec_path)]) == 0


def test_help_lists_every_spec_key(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for section, keys in expcli._SCHEMA.items():
        assert f"[{section}]" in out
        for key in keys:
            assert f"  {key.name} " in out


# ---------------------------------------------------------------------------
# Golden checksums. Computed before the spec schema became a table; a change
# to any of them changes a manifest's spec_sha256 or a run's outputs.

SPEC_TEXT_SHA256 = {
    "fig10": "a496606b41a90748ba9b51965d24e387e1c2cfacb90a95f372112ee479027843",
    "fig4": "ebe57a40350bcd71ae428d7e6ef2c208ef5d714f257f2b0cc020a95d4c08148a",
    "fig5a": "245919a82be9301f771d22618354bbedc1474bb1c16645c6c51009368d8bae0b",
    "fig5b": "2f28f61df4fc12cf1376ea4f5a9d8ea61ac53e259ce356220a8435edce2db650",
    "fig6_type2": "37c4ea5d551b44dcc1b396a7bf45f1a1423e43c94d1c2ce0f88ae5ed0b33bac1",
    "fig6_type3": "829b8244510d42dd1d5a7e88eda7a1b15ded95d3e4cb71614b1f2cd166ae1863",
    "fig6_type4": "a65daf10bf51616a93f7e53c7142177c791274cc4a3e13880135dd3df419dbf4",
    "fig7a": "0cc8bdfb63844429ea9fcc07dffb6b84601cfb3229232025f40d1c11ab6453fe",
    "fig7b": "8268aeee6f7d573c3620d559fd6605c20882a2d3b6a5a68057e47d7c8b2e0b5b",
    "fig8": "0b9e3184193ffea567b7945e4fd23c94012e586d7ac9d549502b53cfd34cdf73",
    "fig9": "e1dfd5ae0ad8c3ae9510c715ba0fe88a2a3e77e3743a8a1ecdb588f1533a19a5",
    "TINY_DYNAMICS": "6c23a79be08b6e002c9894da9315fae5050521dd64327f0baa079c6cf745136e",
    "TINY_SIGMA": "79fac1829449c1becadf9b6f81f503705a532cac898dac308ee63653b23eb6e9",
    "TINY_RE": "82d701413bb5992a2c11005edbfa841cda0f83095d834fb8662ebca8df62bfc2",
}

# spec name -> (sha256 of the manifest's outputs map, manifest spec_sha256)
# for the reduced copy that _reduced() makes of each bundled spec
REDUCED_RUN_SHA256 = {
    "fig10": ("ec0fde4df57b9be8cf2528aedd7c86a0fc882cd63ef29752e898a3fb32bc5fc4",
              "ea0ba0823bd508d1f41d5f26f2578fa535f840e4f1f32a122d808e3c34e5d324"),
    "fig4": ("27ed84971d2fc9f57a65ded9c80a6f4d86120d8669974a683f56e2cdd3e8095e",
             "879a5bdbc52e8425fc8abc9291eb163d10056aa0facfcb3f4ff17df9df1a2145"),
    "fig5a": ("38d2e04121650594a7e5dd6b19026edb8aeaf089b2986787852cb5f87893c808",
              "d67eb38f1821964d0a4bfa367b0b17250071db06337a04603c0a14740e413649"),
    "fig5b": ("ee256d619240b73566e21782d6ee021923caba11d03f14d0e40277887120ee49",
              "c57dc2ac901b2dcccf9ed85cff31dc163661f5c2bb0aeb62a45a22b9c61fe864"),
    "fig6_type2": ("83e923c389128f1e6ec6b5d35744a17401f965a895d9c6998802d0a907bd824c",
                   "74dfba11488aa77359aab5bf42ddca93990b17479d16d00095b67882267af179"),
    "fig6_type3": ("2f4cb5b7ee0334d5a28c57629a660d42788ec878fdbeebbfea759ec43a7035e4",
                   "e7012449fc6b6a7c25c15bb24a0252b34a7f05ab7672477e8c4a90b7765397d5"),
    "fig6_type4": ("7b31da643e874adcd027fb768ec87f1d1dfd3bda72cdafb8dcac88beb54dcd61",
                   "aa85a0ea03c5640255367ca45dfa6bf56add22a924e099342cd132987dc1b59d"),
    "fig7a": ("b28eb6529e5047c9b4e2e3deaacd79f6d3c651e2ebf3fef24725fd32fe870dc1",
              "8f47d6a97ceefc4bf4ef5b68785ecd153f9a6c9a678493b8498e924aefc587ba"),
    "fig7b": ("966c29c81a62711b974cd6b2dc05466e281623e5e961e9c1bff4f8c7b347d100",
              "e1bc3f22584aab403e7bd8a5eb9ad9c4f3bf04812b9fafe97bc9955eebe3081c"),
    "fig8": ("d1ee89ac6a902b4a1f0f66c05a18728fa3b969baad52af0aced8c6ff69b378a5",
             "a159b751d7988b2ef9d69866a19999f118dcde2cd478092f9e00e3d2a91c7420"),
    "fig9": ("2c1f8a302e96920196f3a59d1bd47780439964db03176be2b403a6c55a3c6789",
             "4083f821dc156d88262e2550028a2cf1ef34ab7177b4c43c53c470859cc0c284"),
}


# spec name -> sha256 of the manifest's graph_hashes (sorted-key JSON) for
# the same reduced runs: which graphs each run built, under which keys
REDUCED_GRAPH_HASHES_SHA256 = {
    "fig10": "ccda04b1610b80074d971344cf471a0db83986be76177dba7991a1e731176a18",
    "fig4": "42fa29125327184d70d5e4afdc096e5c500fbd5aa2929c1c4e16b377ba590bbe",
    "fig5a": "d9c659b100fbbadb9b017467222ecdf724d94f7dbd3599417ab38c0a1abcf780",
    "fig5b": "1df86ee8a38d0ce879340f6b30520b5ece0568b29a65c5a7a227f5862ad6722e",
    "fig6_type2": "fbf394fdfc76eebd64cc0ac0d1ed84fdf679fad59fbfdeec749170d2d6da09db",
    "fig6_type3": "d286744391d5995c4778005a4fd76f9fb475e32aeac84118a2a35045fc667e07",
    "fig6_type4": "04df0aed85a05e0a758bd03c2dc723d2c96a4ad78443bc08e8a5bc1d85b9f0f0",
    "fig7a": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "fig7b": "74b2fcd69d0d5dd2281c7f03938fcc5729bd9de2f6bf29d8b4bbe8efc47a8c19",
    "fig8": "32c0b11dfa9fd52a58c26f4cde585d111462aed26c18645a301778869cd13451",
    "fig9": "8ecb010972bfff417da4ad93be944398fe51810afad8497e9ef0f825f01e41d1",
}


# spec name -> (sha256 of the manifest's outputs map, sha256 of its
# graph_hashes) for each bundled spec run as shipped, which steps far past
# the reduced runs' 30 steps. Both engines give these bytes.
FULL_RUN_SHA256 = {
    "fig10": ("f86932132bfcb5162468ae7fd01b99331bf229528feb25392f1c97fa5edf8da7",
              "4dca3666950fddeaa8371ae50de696911cab55363680d1c3e79cd528e50b428a"),
    "fig4": ("59053e806aa71ecb9f844c6d523deb446548777cb4fea0a463be6becc981a28b",
             "603c580c2de900560d1d2c08f8e4e720483ff58457f5b54c4fafed99725a8bb2"),
    "fig5a": ("3e953b0024b16fb73a27d95b811e22fe08ef5a3be0ae2fec1881582275ba10ed",
              "b03b40d1884cbe0bae6910e9c3de153b3d3ca5653c2eb300cd7eca828e9d6986"),
    "fig5b": ("cfd659c24ebd42290f29135a189a5e9f44ac7db6224a793e3eb001b0da006dd3",
              "0605197296f7399c2d05fd5cc7b289d4c2fdafa7466f5b9c8f2cd951f6443b61"),
    "fig6_type2": ("aa00102a7c60bc4a686c2f021e41f740a0bdd4f5cd3e46db8acbed6b6edec5e7",
                   "e092a20f34c8af480b87f1ba7654b2539d3ccc84a1c98be83bdc6048cac1189b"),
    "fig6_type3": ("f15fb8c0c1f802be3b4aef64821a39cffb65cbcc4330390720d41f6d7dac19a0",
                   "d3a3e5b8115739ca913d4c7263fb9e3401762bafd281667020b3e36e60484e30"),
    "fig6_type4": ("6d392bbf63fee4ed991dab501a87784709ae3cf3c0efea92591f083ceab3b5f0",
                   "5ae79d7b5a6b00a0e039cdbe25743618df10687746e0115b24afb49f9d318ae5"),
    "fig7a": ("8e033536fb46fbf1590aaa61fb4734839800489039b8db07d4cb89df5e2e8837",
              "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    "fig7b": ("9b589516f581040ff768236b762ac46762fbb5634c6f7e55a4b14a8eca8ccbc3",
              "dc1c05d3e2b15976b3aa38c1e786b2d04be554bcbf0202ba1641457450199bd1"),
    "fig8": ("96e357d24752af6426edd49439952489eaec8fb03b20f645195262f2b97d7d6c",
             "07070c7f3172526c867a078f670e45faeca112dac1a1a3e4ebee243d000685ba"),
    "fig9": ("5bc6a914e26f39211aeb85a02d13ace5dbd085dd5feb13c508dfd5ecc922f8ed",
             "72d8b03b29f356db611a1d30ef68f974d6a183999035989fe508340511e412a3"),
}


# spec name -> sha256 of the sorted (task seed, sha256 of mean_xi) pairs of
# every Markov run of the spec as shipped. A sigma_markov spec's outputs are
# per-level verdicts and counts, which a small change to the stepping can
# leave as they were; the runs' series cannot.
FULL_RUN_MEAN_XI_SHA256 = {
    "fig10": "54e9dde677cd3cec48b78c53218e5f9ab7262c02e68e8674db95b4848a7c653f",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reduced(spec):
    spec.runs = min(spec.runs, 2)
    spec.horizon = min(spec.horizon, 0.3)
    for _, params in spec.graphs:
        if "n" in params:
            params["n"] = 150
        if params["generator"] == "powerlaw":
            params["d_max"] = 20.0
    if spec.sweep is not None:
        spec.sweep = (spec.sweep[0], spec.sweep[1][:2])
    return spec


def test_golden_spec_text_checksums():
    texts = {name: bundled_spec_text(name) for name in bundled_spec_names()}
    texts.update(TINY_DYNAMICS=TINY_DYNAMICS, TINY_SIGMA=TINY_SIGMA, TINY_RE=TINY_RE)
    got = {name: _sha256(spec_to_text(parse_spec(text))) for name, text in texts.items()}
    assert got == SPEC_TEXT_SHA256


def test_golden_reduced_run_checksums(tmp_path):
    got = {}
    for name in bundled_spec_names():
        man = run_experiment(_reduced(parse_spec(bundled_spec_text(name))), tmp_path / name)
        got[name] = (_sha256(json.dumps(man.outputs, sort_keys=True)), man.spec_sha256)
    assert got == REDUCED_RUN_SHA256


def test_golden_reduced_run_graph_hashes(tmp_path):
    got = {}
    for name in bundled_spec_names():
        man = run_experiment(_reduced(parse_spec(bundled_spec_text(name))), tmp_path / name)
        got[name] = _sha256(json.dumps(man.graph_hashes, sort_keys=True))
    assert got == REDUCED_GRAPH_HASHES_SHA256


@pytest.mark.parametrize("name", bundled_spec_names())
def test_golden_full_scale_run(name, tmp_path, monkeypatch):
    # Each bundled spec as shipped: the checksums pin every step of every
    # run, not just the first 30. fig9 is ~40k runs: about 40 s on the
    # compiled kernel with two workers, several minutes on the numpy loop.
    runs = []
    if name in FULL_RUN_MEAN_XI_SHA256:
        execute = markov._execute_run

        def recording(*args):  # (..., seed, B0): one pooled or serial run
            rec = execute(*args)
            runs.append((args[-2], hashlib.sha256(rec.mean_xi.tobytes()).hexdigest()))
            return rec

        monkeypatch.setattr(markov, "_execute_run", recording)
    man = run_experiment(parse_spec(bundled_spec_text(name)), tmp_path, workers=WORKERS)
    assert (_sha256(json.dumps(man.outputs, sort_keys=True)),
            _sha256(json.dumps(man.graph_hashes, sort_keys=True))) == FULL_RUN_SHA256[name]
    if name in FULL_RUN_MEAN_XI_SHA256:
        assert _sha256(json.dumps(sorted(runs))) == FULL_RUN_MEAN_XI_SHA256[name]


# ---------------------------------------------------------------------------
# Execution


def test_dynamics_run_outputs_and_determinism(tmp_path):
    spec = parse_spec(TINY_DYNAMICS)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    man1 = run_experiment(spec, out1)
    man2 = run_experiment(spec, out2)
    assert man1.outputs  # ensemble + meanfield per level + summary
    assert man1.outputs == man2.outputs  # byte-identical checksums
    assert (out1 / "summary.csv").exists()
    assert set(man1.graph_hashes) == {"er"}
    saved = json.loads((out1 / "manifest.json").read_text())
    assert saved["spec_sha256"] == man1.spec_sha256
    # The engine is recorded beside the outputs, not among them.
    assert saved["markov_engine"] == markov.engine() in ("kernel", "numpy")
    assert {p.name for p in out1.iterdir()} == set(man1.outputs) | {"manifest.json"}

    # a different seed changes the stochastic outputs
    spec_b = parse_spec(TINY_DYNAMICS)
    spec_b.seed = 100
    man3 = run_experiment(spec_b, tmp_path / "run3")
    ens_keys = [k for k in man1.outputs if k.endswith("_ensemble.csv")]
    assert any(man1.outputs[k] != man3.outputs[k] for k in ens_keys)


def test_strategic_fraction_dynamics(tmp_path):
    text = TINY_DYNAMICS.replace("rules = uniform", "rules = strategic")
    man1 = run_experiment(parse_spec(text), tmp_path / "run1")
    man2 = run_experiment(parse_spec(text), tmp_path / "run2")
    assert (man1.outputs, man1.graph_hashes) == (man2.outputs, man2.graph_hashes)
    # target = fraction: the expected node fraction of the start is the level
    first = (tmp_path / "run1" / "er_0p6_meanfield.csv").read_text().splitlines()[1]
    assert float(first.split(",")[1]) == pytest.approx(0.6, abs=1e-12)


def test_dynamics_csv_contents(tmp_path):
    spec = parse_spec(TINY_DYNAMICS)
    run_experiment(spec, tmp_path)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("graph,level,final_mean_blue")
    assert len(summary) == 3  # two levels
    ens = (tmp_path / "er_0p6_ensemble.csv").read_text().splitlines()
    assert ens[0] == "t,mean_xi,stderr,n_absorbed_blue,n_absorbed_red"


def test_sigma_markov_run(tmp_path):
    spec = parse_spec(TINY_SIGMA)
    man = run_experiment(spec, tmp_path)
    assert "er_uniform_report.csv" in man.outputs
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "graph,rule,sweep_key,sweep_value,a1,b1,sigma_markov,status"
    assert len(summary) == 2


def test_h_curve_run(tmp_path):
    spec = parse_spec(bundled_spec_text("fig7a"))
    man = run_experiment(spec, tmp_path)
    assert "h_curve.csv" in man.outputs
    lines = (tmp_path / "h_curve.csv").read_text().splitlines()
    assert lines[0] == "gamma,h,alpha_threshold,beta_threshold,gap,ratio"
    rows = [line.split(",") for line in lines[1:]]
    hs = {float(r[0]): float(r[1]) for r in rows}
    assert min(hs, key=hs.get) == 2.0


def test_h_curve_without_curve_is_the_default_spelled_out(tmp_path):
    # Leaving [curve] out runs the schema's z = 20, and hashes alike.
    bare = parse_spec(_without(FIG7A, "[curve]", "z = "))
    assert spec_to_text(bare) == spec_to_text(parse_spec(FIG7A))
    assert (run_experiment(bare, tmp_path / "bare").spec_sha256
            == run_experiment(parse_spec(FIG7A), tmp_path / "full").spec_sha256)
    assert (tmp_path / "bare" / "h_curve.csv").read_bytes() == (
        tmp_path / "full" / "h_curve.csv").read_bytes()
    # A spec built in Python has no parser to fill the section in.
    with pytest.raises(SpecError, match="^curve: section required for h_curve$"):
        validate_spec(dataclasses.replace(bare, curve={}))


def test_re_sweep_run(tmp_path):
    spec = parse_spec(TINY_RE)
    man = run_experiment(spec, tmp_path)
    assert "relative_error.csv" in man.outputs
    lines = (tmp_path / "relative_error.csv").read_text().splitlines()
    assert lines[0] == "gamma,avg_degree,mean_RE,excluded_nodes"
    assert len(lines) == 3


def test_sigma_sweep_keeps_the_other_combat_keys(tmp_path, monkeypatch):
    seen = []

    def spy(g, f, *args, **kwargs):
        seen.append(f)
        return estimate_sigma_markov(g, f, *args, **kwargs)

    monkeypatch.setattr(expcli, "estimate_sigma_markov", spy)
    text = _insert_after(TINY_SIGMA, "sigma = 0.5", "boundary_tolerance = 0.3")
    spec = parse_spec(text.replace("horizon = 12", "horizon = 1") + "\n[sweep]\nsigma = 0.3, 0.6\n")
    run_experiment(spec, tmp_path)
    assert seen == [TypeICombat(sigma=0.3, boundary_tolerance=0.3),
                    TypeICombat(sigma=0.6, boundary_tolerance=0.3)]


def test_stage_failure_names_stage(tmp_path, monkeypatch):
    spec = parse_spec(TINY_DYNAMICS)
    spec.graphs[0] = ("er", {"generator": "file", "path": str(tmp_path / "missing.edges")})
    with pytest.raises(ExperimentError, match="^stage 'graph:er' failed"):
        run_experiment(spec, tmp_path / "dynamics")

    # without a [sweep] the sigma_markov stage label carries no sweep part
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(expcli, "estimate_sigma_markov", fail)
    with pytest.raises(ExperimentError) as info:
        run_experiment(parse_spec(TINY_SIGMA), tmp_path / "sigma")
    assert str(info.value) == "stage 'sigma_markov er uniform' failed: boom"


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    spec_path = tmp_path / "tiny.spec"
    spec_path.write_text(TINY_DYNAMICS)
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()

    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(expcli, "simulate_ensemble", fail)
    assert main(["run", str(spec_path), "--out", str(out)]) == 3
    assert not (out / "manifest.json").exists()


def test_rerun_with_another_spec_leaves_only_its_outputs(tmp_path):
    out = tmp_path / "out"
    first = run_experiment(parse_spec(TINY_DYNAMICS), out)
    assert any(name.startswith("er_0p2_") for name in first.outputs)
    # A file no manifest lists, and a listed name that points outside the directory.
    (out / "notes.txt").write_text("kept")
    (tmp_path / "outside.csv").write_text("kept")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"]["../outside.csv"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))

    second = run_experiment(parse_spec(TINY_SIGMA), out)
    files = {p.name for p in out.iterdir()}
    assert files == set(second.outputs) | {"manifest.json", "notes.txt"}
    assert (tmp_path / "outside.csv").read_text() == "kept"


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_run_spec_file(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "tiny.spec"
    spec_path.write_text(TINY_DYNAMICS)
    monkeypatch.setenv("CYBERDYN_OUT", str(tmp_path / "outroot"))
    assert main(["run", str(spec_path), "--workers", "1"]) == 0
    assert (tmp_path / "outroot" / "tiny" / "manifest.json").exists()

    # an output path that is a file is a runtime error, not a spec error
    capsys.readouterr()
    assert main(["run", str(spec_path), "--out", str(spec_path)]) == 3
    assert f"error: [Errno {errno.EEXIST}] File exists" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_run_rejects_fewer_than_one_worker(workers, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "fig10", "--workers", workers, "--out", str(out_dir)]) == 2
    assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_graph_gen_and_thresholds(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["graph", "gen", "er", "--n", "80", "--p", "0.2",
                 "--seed", "3", "--out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    g = load_graph(out)
    root = critical_nu(ApproxModel.from_graph(g, 0.4))
    assert type(root) is float
    lines = [f"alpha_threshold = {alpha_threshold(g.degrees, 0.4)!r}",
             f"beta_threshold  = {beta_threshold(g.degrees, 0.4)!r}",
             f"critical_nu     = {root!r}"]
    assert main(["thresholds", "--graph", str(out), "--sigma", "0.4"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert main(["thresholds", "--graph", str(out), "--sigma", "0.4",
                 "--z", "20", "--gamma", "2.5"]) == 0
    assert capsys.readouterr().out.splitlines() == lines + [f"h(z, gamma)     = {h(20.0, 2.5)!r}"]

    # sigma outside (0, 1) exits 2 naming the option, with no partial report
    for sigma in ("1.5", "nan"):
        assert main(["thresholds", "--graph", str(out), "--sigma", sigma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --sigma: must be in (0, 1), got {float(sigma)!r}" in captured.err


@pytest.mark.parametrize(
    "argv, params",
    [
        (["er", "--n", "80", "--p", "0.05"], {"generator": "er", "n": 80, "p": 0.05}),
        (
            ["powerlaw", "--n", "400", "--gamma", "2.5", "--d-min", "1", "--d-max", "30"],
            {"generator": "powerlaw", "n": 400, "gamma": 2.5, "d_min": 1.0, "d_max": 30.0},
        ),
        (
            ["powerlaw_fixed_variance", "--n", "300", "--gamma", "2.5", "--r", "8", "--dvar", "2"],
            {"generator": "powerlaw_fixed_variance", "n": 300, "gamma": 2.5, "r": 8.0, "dvar": 2.0},
        ),
        (
            ["clustered", "--sizes", "30,40", "--p-in", "0.2", "--p-out", "0.01"],
            {"generator": "clustered", "sizes": [30, 40], "p_in": 0.2, "p_out": 0.01},
        ),
    ],
)
def test_cli_graph_gen_is_the_spec_recipe(argv, params, tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["graph", "gen", *argv, "--seed", "1", "--out", str(out)]) == 0
    expected = expcli._GENERATORS[params["generator"]].build(params, 1)
    assert load_graph(out).structural_hash() == expected.structural_hash()
    if argv[0] in ("powerlaw", "powerlaw_fixed_variance"):
        assert expected.n < int(argv[2])  # only the giant component is written


@pytest.mark.parametrize(
    "argv, message",
    [
        (["er", "--n", "50", "--p", "2"], "--p: must be in (0, 1], got 2.0"),
        (["er", "--n", "50"], "--p: missing"),
        (["powerlaw", "--n", "50", "--gamma", "2.5", "--d-min", "5", "--d-max", "3"],
         "--d-min: must be <= d_max"),
        (["clustered", "--sizes", "30,x", "--p-in", "0.2"], "--sizes: expected int list, got '30,x'"),
        (["clustered", "--sizes", "30,40", "--p-in", "0.1", "--p-out", "0.2"],
         "--p-out: must be < p_in"),
    ],
)
def test_cli_graph_gen_checks_its_flags_as_graph_keys(argv, message, tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["graph", "gen", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("generator", ["fixed-variance", "file"])
def test_cli_graph_gen_takes_the_spec_generator_names(generator, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["graph", "gen", generator, "--out", str(tmp_path / "g.edges")])
    assert info.value.code == 2
    assert f"invalid choice: '{generator}'" in capsys.readouterr().err


# case -> (recipe params, structural hash of the graph it builds at seed 7),
# computed before the recipes became entries of one generator table
GENERATOR_RECIPES = {
    "er": ({"generator": "er", "n": 120, "p": 0.05},
           "e0f0734109591bbd4e64a3a3b4d278df7ab5b37d414ddeb6e9343fb1fa6fdc91"),
    "powerlaw": ({"generator": "powerlaw", "n": 300, "gamma": 2.5, "d_min": 1.0, "d_max": 30.0},
                 "ed7f514974859331bb77d596e85f1610f5d200ca3775af74685aca8bc5f4d59c"),
    "powerlaw d_min = d_max": (
        {"generator": "powerlaw", "n": 200, "gamma": 2.5, "d_min": 6.0, "d_max": 6.0},
        "793788e80de1a90dccda2d9582e17b5bde3e80fd961e6caf0287450d7c07d584",
    ),
    "powerlaw_fixed_variance": (
        {"generator": "powerlaw_fixed_variance", "n": 300, "r": 8.0, "dvar": 2.0, "gamma": 2.5},
        "e8cd7dd5789970b4ca6f0d3bcb49b59ac7d55df7f69d6c1c06c50b3fc746fb36",
    ),
    "clustered": ({"generator": "clustered", "sizes": [60, 40], "p_in": 0.1},
                  "4117b33c9941f677c02b7c75899494a936cf3ef5f86ae71baa18f3ea0f57447a"),
    "clustered p_out": (
        {"generator": "clustered", "sizes": [60, 40], "p_in": 0.1, "p_out": 0.01},
        "b2dcac1e63c18b77d094dea9d526fa435a756ecb94735e11e6e1f35ebdbfdf78",
    ),
    "file": ({"generator": "file"},
             "58dd041a10b874c2f76719ef22485b87a35d0c4f5e7be414485d7c10308960a2"),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_RECIPES))
def test_generator_recipes_build_the_pinned_graphs(case, tmp_path):
    params, expected = GENERATOR_RECIPES[case]
    if params["generator"] == "file":
        save_graph(gen_er(80, 0.1, 3), tmp_path / "g.edges")
        params = {**params, "path": str(tmp_path / "g.edges")}
    g = expcli._GENERATORS[params["generator"]].build(params, 7)
    assert g.structural_hash() == expected


def test_tracer_sees_the_library_calls_of_a_run(tmp_path):
    # perfbench's tracer replaces module attributes such as expcli.gen_er;
    # a table entry holding the function object itself would bypass it.
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_experiment(parse_spec(TINY_DYNAMICS), tmp_path)
    finally:
        tracer.uninstall()
    calls = {name: rec[0] for name, rec in tracer.summary()[0].items()}
    for name in ("graphgen.gen_er", "meanfield.integrate", "markov.simulate_ensemble",
                 "metrics.relative_error_report"):
        assert calls.get(name, 0) > 0, name


def test_cli_run_sigma_markov_on_a_graph_file(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    assert main(["graph", "gen", "er", "--n", "100", "--p", "0.2", "--seed", "5",
                 "--out", str(graph)]) == 0
    text = (
        TINY_SIGMA.replace("[graph:er]", "[graph:g]")
        .replace("generator = er\nn = 150\np = 0.15", f"generator = file\npath = {graph}")
        .replace("horizon = 12", "horizon = 10").replace("runs = 6", "runs = 4")
        .replace("seed = 7", "seed = 2")
    )
    spec_path = tmp_path / "g.spec"
    spec_path.write_text(text)
    assert main(["run", str(spec_path), "--out", str(tmp_path / "run")]) == 0

    # the report is estimate_sigma_markov's, seeded from the spec seed
    est = estimate_sigma_markov(load_graph(graph), TypeICombat(sigma=0.5), [0.1, 0.5, 0.9],
                                runs=4, horizon=10, dt=0.01, master_seed=split_seed(2, 3000))
    save_threshold_report_csv(est, tmp_path / "direct.csv")
    report = (tmp_path / "run" / "g_uniform_report.csv").read_bytes()
    assert report == (tmp_path / "direct.csv").read_bytes()

    # Five steps absorb no run, so every level is mixed and the grid undecided.
    spec_path.write_text(text.replace("horizon = 10", "horizon = 0.05")
                         .replace("levels = 0.1, 0.5, 0.9", "levels = 0.45, 0.5, 0.55"))
    assert main(["run", str(spec_path), "--out", str(tmp_path / "short")]) == 0
    summary = (tmp_path / "short" / "summary.csv").read_text().splitlines()
    assert summary[1].endswith(",inconclusive")
    rows = (tmp_path / "short" / "g_uniform_report.csv").read_text().splitlines()
    assert [row.split(",")[-1] for row in rows[1:4]] == ["mixed"] * 3

    # run is the only command line to the estimate
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["sigma-markov", "--graph", str(graph), "--sigma", "0.5"])
    assert info.value.code == 2
    assert "invalid choice: 'sigma-markov'" in capsys.readouterr().err


def test_cli_seed_override(tmp_path):
    spec_path = tmp_path / "tiny.spec"
    spec_path.write_text(TINY_DYNAMICS)
    assert main(["run", str(spec_path), "--out", str(tmp_path / "a"),
                 "--seed", "1234"]) == 0
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["seed"] == 1234
