"""Golden CLI reports: exit code and SHA-256 of stdout for every subcommand.

The pins fix every byte a subcommand writes, including the paths perfbench's
pinned reports never reach: failed preconditions, `not_applicable` checks and
diagnostic error checks.  Inputs arrive on stdin so the echoed command line
does not depend on a file path.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from srgpq.cli import run, serialize_graph6
from srgpq.geometry import build_gq35, build_rook4, build_shrikhande, format_incidence, graph_to_pq
from srgpq.graphcore import Graph

VIOLATING_INCIDENCE = "6 4\n0 1 2\n0 1 3\n2 4 5\n3 4 5\n"


def _graph_inputs() -> dict[str, str]:
    return {
        "gq35": serialize_graph6(build_gq35()),
        "rook4": serialize_graph6(build_rook4()),
        "shrikhande": serialize_graph6(build_shrikhande()),
        "gq35-toggled": serialize_graph6(build_gq35().toggle_edge(0, 1)),
    }


GRAPH_COMMANDS = {
    "check-srg": ["check-srg"],
    "check-diamond-free": ["check-diamond-free"],
    "check-con": ["check-con"],
    "check-eq-pq": ["check-eq-pq"],
    "check-star": ["check-star"],
    "check-psi": ["check-psi"],
    "related": ["related"],
    "local-stats": ["local-stats"],
    "local-stats-v0": ["local-stats", "-", "--vertex", "0"],
    "sigma-b0": ["sigma", "-", "--base", "0"],
    "sigma-b5": ["sigma", "-", "--base", "5"],
    "group-b0": ["group", "-", "--base", "0"],
    "group-b3": ["group", "-", "--base", "3"],
    "graph-to-pq": ["graph-to-pq"],
}

STANDALONE_COMMANDS = {
    "feasibility-valid": ["feasibility", "676", "108", "2", "20"],
    "feasibility-invalid": ["feasibility", "10", "3", "0", "3"],
    "pq-params-3-35-20": ["pq-params", "3", "35", "20"],
    "pq-params-3-35-19": ["pq-params", "3", "35", "19"],
    "diophantine-100": ["diophantine", "--max", "100"],
    "certificate": ["certificate-pq-3-35-20"],
    "build-rook4": ["build", "rook4"],
    "build-shrikhande": ["build", "shrikhande"],
    "build-gq35": ["build", "gq35"],
}


def _precondition_inputs() -> dict[str, tuple[list[str], Graph]]:
    """Cases for the precondition failures that the four graphs above never reach."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen = outer + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    triangle = [(0, 1), (1, 2), (0, 2)]
    return {
        # SRG(10, 3, 0, 1): mu = 1 is not n(n+1)
        "check-con/petersen": (["check-con"], Graph.from_edges(10, petersen)),
        "check-srg/k3": (["check-srg"], Graph.from_edges(3, triangle)),
        # two disjoint triangles: mu = 0
        "check-srg/2k3": (["check-srg"], Graph.from_edges(6, triangle + [(3, 4), (4, 5), (3, 5)])),
    }


def _cases() -> dict[str, tuple[list[str], str]]:
    """case id -> (argv, stdin text)."""
    cases = {}
    for graph_name, text in _graph_inputs().items():
        for command_name, argv in GRAPH_COMMANDS.items():
            cases[f"{command_name}/{graph_name}"] = (argv, text + "\n")
    for command_name, argv in STANDALONE_COMMANDS.items():
        cases[command_name] = (argv, "")
    cases["pq-axioms/gq35"] = (["pq-axioms", "-"], format_incidence(graph_to_pq(build_gq35())))
    cases["pq-axioms/violating"] = (["pq-axioms", "-"], VIOLATING_INCIDENCE)
    for case, (argv, g) in _precondition_inputs().items():
        cases[case] = (argv, serialize_graph6(g) + "\n")
    return cases


def _capture(argv: list[str], text: str, capsys, monkeypatch) -> tuple[int, str]:
    """Exit code and stdout digest of one CLI call with text on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


PINS: dict[str, tuple[int, str]] = {
    "build-gq35": (0, "f4ce89541e9abbaa8d12249c103a028a954cc3d95e9cbbfa542a637bb5fb0cee"),
    "build-rook4": (0, "a48e66995aa6bee3a50782a3611794258e1aa36c10980bada175262b818fba10"),
    "build-shrikhande": (0, "003ed13bf7a90f30e4ae7df67289bbf39dab19058093845a3dbcda433490106b"),
    "certificate": (0, "2b04def81997f9c3e08142ff3e0736d87101228f895e1194ff43fbe8ab6d8e7a"),
    "check-con/gq35": (0, "8fd805b5aa889a9949a5760ac553e09a4dd7aff1821b3f86f48ab4e92790b262"),
    "check-con/gq35-toggled": (1, "bae5973dc6f457b8656a1766ec4facc0e411600cce5a423433269e15428af43c"),
    "check-con/petersen": (1, "5a49032667beca4d77a259dcb16e4d64471b0b0d6820adc396ff859fcc9cf2f0"),
    "check-con/rook4": (0, "014bf445140132b24cff21a96e7d7a392551e14e9e4c8398eb9104bdb5a4d024"),
    "check-con/shrikhande": (1, "fe007da91e7a827f4027b4dd3b59d30ab39401f4eea5c93656affcd5fee05b4b"),
    "check-diamond-free/gq35": (0, "53ff2fdee4d8c24931d60519a1436871f42e4cf9f332555391e0ab38222937d9"),
    "check-diamond-free/gq35-toggled": (1, "475b93f658a06c7db3a64df78724604c8d8f1bd98afe56c13c35fe2666007fd8"),
    "check-diamond-free/rook4": (0, "dd8fbba48473a2eb528f3627344a07a6c8ff8866d16e153e819425c4d7c45eb5"),
    "check-diamond-free/shrikhande": (1, "ddf72211aebcbd29e388ae9556755506c156ce10b53212d03d32d22f544bb78a"),
    "check-eq-pq/gq35": (0, "166c1662e042c5ac3123b1f69a1252510359e9ac7547f0d3c12b2fb60e2d2e9b"),
    "check-eq-pq/gq35-toggled": (1, "6535cd8cdedaf4d08a82010f4444a59bb708cc2f6754ef4a87cf1b6a2623e944"),
    "check-eq-pq/rook4": (0, "539d789f2d98d5c6097feb00b683370a8f31591da13b60d375f336fc7052008d"),
    "check-eq-pq/shrikhande": (1, "788c37630798184cec6ca24fa3f45b1cee55e7e27c376ccb7c792fe5d51245fd"),
    "check-psi/gq35": (0, "179d6c3ae111788288b9910bf42773514d43c9639b3c4f3a44820b2561349ae8"),
    "check-psi/gq35-toggled": (1, "fd84e12083cf05556e0c8c5ae05148f38f614f56bce4801fa23d04233ed47ae8"),
    "check-psi/rook4": (0, "30d30727246180cb20c34fc96ae452a86ffd869f54340d7b779aa7aacefff3f3"),
    "check-psi/shrikhande": (1, "e741761f462e546531bca697710f3a2a382a8cf721d11a8b8c4f504566f827a5"),
    "check-srg/2k3": (1, "414ff44b974a00480e2a3e3e5cb74d3bc418a3c9a77107eb3224f07847c32989"),
    "check-srg/gq35": (0, "12f079ecd5b8ce4b4bd33f766fd985bc6852d908f0b453502f47cec069c9206c"),
    "check-srg/gq35-toggled": (1, "75f29732e9ef39a1f1d090531da120b539e6ca165ff08461a565f7ebba3fe98f"),
    "check-srg/k3": (1, "7b671aaa88e3daa748ebd126433fb8aeec58681276e5a06ea993afae36df7a59"),
    "check-srg/rook4": (0, "6680968143a2c8003227d194ca85f6b905467554b0ab4dbeeb2f9f9852ea0fa1"),
    "check-srg/shrikhande": (0, "c862012b5aa212d1a3dcffc75e509d5a38383269ae328e680ac04abe65b70059"),
    "check-star/gq35": (0, "db6779af43ed2fcace5727a9b4fb367a4efd746c27076510d6b138ed0d892f61"),
    "check-star/gq35-toggled": (1, "e0a6e90d93488975aba9ef45668037c356595d678f445a40f0b8ef54547185b6"),
    "check-star/rook4": (0, "889ccfe710c8860c81b744c02d378c80e65d2c20c468e510fbbf20abbd34ac7c"),
    "check-star/shrikhande": (1, "d1e81b42328dfceb549cb58f5619c049a576afd3bc4de7df2fab4854e8ae1981"),
    "diophantine-100": (0, "0b31f9db508abf0b68b9492871c0891a3bb03f58e9bdea8449065ce67d935643"),
    "feasibility-invalid": (1, "64ab448ddf05bde31493318f8944f1d9fcc6cc53540f4732f32fc55e14039a3e"),
    "feasibility-valid": (0, "8614ec6ad21e52545e0bc43fe5e2d636e442f0ca9d5f1f41b99a6a74859c4e23"),
    "graph-to-pq/gq35": (0, "a55b68470cadc67d561af7c4b85aa93728bf5ace58bb28f3c232e48bb50b2878"),
    "graph-to-pq/gq35-toggled": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph-to-pq/rook4": (0, "6ecd40362f0679beecd25de3bf4a20b576faf1a321ae3a55c6260f7f1ae7d9ce"),
    "graph-to-pq/shrikhande": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "group-b0/gq35": (0, "b9a9cd35f3905d87c0104b583ff6bf983ba007c4b98b4b09b210e93d8e721e4b"),
    "group-b0/gq35-toggled": (1, "d62d202fe86c6879e71434a94fc136b8654c2761b6e84282115ad4a4771bf27e"),
    "group-b0/rook4": (0, "102dd8aa95e78d9a95c75be6eb5523f5d987d067ec0c596a6e975a06b2ba0372"),
    "group-b0/shrikhande": (1, "51e19b738f934f61e27902e10221cee3e2faec28fbe16ee8bf12bbe6f389732a"),
    "group-b3/gq35": (0, "aae5f76aa90414d212314c89a8685158c4d67c6a36215cddab6571fff7016eea"),
    "group-b3/gq35-toggled": (1, "f0e93d032d997539c4393c5027a0f518a8f11bc1feb618c80c3b18614b221a4b"),
    "group-b3/rook4": (0, "8bceebaa321bff64f8b02d5b671342b4cb30025fcc93107aa5b92d229a7fc141"),
    "group-b3/shrikhande": (1, "a4d2c0ccccf4704725b13197d9d0479c8d252d7197080b4885b27835b3110678"),
    "local-stats-v0/gq35": (0, "301fcf729a4bdb40eeb59ec7d721ef5327ee3f36c68094b176edfd64da704eaa"),
    "local-stats-v0/gq35-toggled": (1, "f66a9264636b2d1a036bed2060418fe37036f80d2549d13533c4b456841506c1"),
    "local-stats-v0/rook4": (0, "172da69d4715edd7ce15b2c7743c3b45f04fa8c553af0ac64d9107daf921eb9f"),
    "local-stats-v0/shrikhande": (1, "69acd1cd801e1678363f706965bba47aadf75903f405593ae81687c48084c800"),
    "local-stats/gq35": (0, "a6f4376fdabc51bcbb4789f4506752c5f88babacc99bca435db0625f609cc261"),
    "local-stats/gq35-toggled": (1, "e59996e767981ab6319acfa23bcda7eae29b66ac602dd83e919d043e3aedc7d7"),
    "local-stats/rook4": (0, "a89579612b2e55e8e182849e344be8cede172bc230ca81da938cf878c9532ed8"),
    "local-stats/shrikhande": (1, "c15b575a5b0377a76fe523acbf9151ff8d5c8d9d8d1928fd4c57bc611d560b9a"),
    "pq-axioms/gq35": (0, "355c415dbf4f9cb076666c5cd5eb267ecea738ef54c9cbd1ff6a3d96d672d34b"),
    "pq-axioms/violating": (1, "b769cd183c8eb4910553d450081236d8f70a3fdf2b214b8bef9b67c047f7df69"),
    "pq-params-3-35-19": (1, "145f5e09db7b8ede846a65b6ecd614f53adc15fcae98e8ebad4a92de654c9bb9"),
    "pq-params-3-35-20": (0, "9598e8a050a250a1bc90cf6640fa90079c613066064fe21e4eb2c1429179c52e"),
    "related/gq35": (0, "2a826d8b1c49f9d3c0072a4fe386e269b5852a6935934b8c45f7208180697bf8"),
    "related/gq35-toggled": (1, "2b3e7c921766402c02f10c1e2cc0d71a7ffb30285b58096f413771f92f1ff57d"),
    "related/rook4": (0, "af69e2d187e17c7a00b8cf3bdbc6b7cc8fe3aa2f064d12520538bd1eabeb4b1e"),
    "related/shrikhande": (1, "8af599248858b01e5c16fc48aba5ff75c5ae9ecfc5ecfeecdccfd89d05dadc72"),
    "sigma-b0/gq35": (0, "20c6a7a2487aa5feb6380ccbc949f3efce36d45c174575d8d0974ecd3ae7a833"),
    "sigma-b0/gq35-toggled": (1, "6297e6ff59fa5988c2316b4be462d2e8f421814ccd5319f4ccc9c67a18be56f7"),
    "sigma-b0/rook4": (0, "1623c7546d8d69cf799a1f25623887e16c7185ab41c39f7575b219d08e2b9e8a"),
    "sigma-b0/shrikhande": (1, "3378aa6c42868033f2d104c7dccd8b7380bd9a21150da6216a110ab920e23b70"),
    "sigma-b5/gq35": (0, "b4f5800e26a11bba995d7f2962a2fd25166a14b37de15f744d9af06855a0b2b5"),
    "sigma-b5/gq35-toggled": (1, "7c0342a4c6987a6108b553f7521197b6e487b63c818025236839fada54331dc6"),
    "sigma-b5/rook4": (0, "cde192c593570a74f40a52df60ab51b449da230c4caaf51389763a62995a400a"),
    "sigma-b5/shrikhande": (1, "196f1c9424fee185f3a2f61d099eef2c434e3ad8e6824a4de16ee75735d86752"),
}

CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_pin(case, capsys, monkeypatch):
    argv, text = CASES[case]
    assert _capture(argv, text, capsys, monkeypatch) == PINS[case]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


def test_every_case_back_to_back_in_one_process(capsys, monkeypatch):
    # one parser serves every call of run(): no option or default carries over
    order = sorted(CASES)
    random.Random(0).shuffle(order)
    found = {case: _capture(*CASES[case], capsys, monkeypatch) for case in order}
    assert found == PINS


@pytest.mark.parametrize(
    "case, name, field, value",
    [
        ("check-con/petersen", "preconditions", "requirement", "family-member"),
        ("check-srg/k3", "strongly-regular", "reason", "too-few-vertices"),
        ("check-srg/2k3", "strongly-regular", "reason", "trivial-parameters"),
    ],
)
def test_precondition_pins_are_the_failures_they_name(case, name, field, value, capsys, monkeypatch):
    argv, text = CASES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(list(argv)) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert (check["name"], check["severity"]) == (name, "asserted-fail")
    assert {**check["details"], **check["witness"]}[field] == value


def test_check_psi_pin_on_rook4_is_a_partition_failure_at_every_vertex(capsys, monkeypatch):
    argv, text = CASES["check-psi/rook4"]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(list(argv)) == 0
    checks = {check["name"]: check for check in json.loads(capsys.readouterr().out)["checks"]}
    partition = checks["psi-partition"]
    assert partition["severity"] == "diagnostic"
    assert partition["details"] == {"failures": 16, "vertices_checked": 16}
    assert partition["witness"]["u"] == 0
    assert checks["psi-regularity"]["details"] == {"failures": 0, "vertices_checked": 0}
