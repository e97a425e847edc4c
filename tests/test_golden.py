"""Byte-for-byte output pins.

Each test hashes one output (CLI stdout or stderr, or a verify report's
JSON) and compares it with a sha256 digest recorded from a build whose
outputs were checked by the rest of the suite. A change meant to keep
every output byte must leave all of them passing unchanged; a change
that alters an output on purpose re-records the digest it changes and
says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from orckit import cli
from orckit.families import cocktail_party, petersen
from orckit.verify import check_edge_properties, check_family_values, check_product_formula

from helpers import corrupt_assignment_optimum


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


# family -> (gen parameters, digest of its graph6 output)
GEN = {
    "complete": (["--n", "5"], "04003765f09de2f4e929e50b225b2fff590e4f0b9106c3eab308682abdd60944"),
    "cycle": (["--n", "7"], "6aeaf585ef3076281919dcd05b565d533aa1bbcefd8a0006f49e1fe689dfdc5b"),
    "path": (["--n", "5"], "eba05293b4acbf84a66fb5b571f9be862e44d28c931d4cb3d4bd75a92f19f6dd"),
    "star": (["--n", "4"], "86a7fdf7ad5b5f7bcd40c3d0e1e69725d06269d5a835cbae995f3b0d9ffebb62"),
    "complete-bipartite": (["--m", "2", "--n", "3"],
                           "4a5e598d08025fa1eb69c752d3b7d86ba442abd8dc713c521bfb25fe43a49b2a"),
    "hypercube": (["--n", "3"],
                  "bbf8d64ce4dd11d788d395da9bf6c9126c57a311f2e31dbf941d3bfcb4df8d28"),
    "cocktail-party": (["--n", "3"],
                       "ebf7dbd7e62f1b7edab612a6d15b145e3d73ff72f1c609bc0b34d5824c5fae49"),
    "near-cocktail": (["--n", "7"],
                      "2d169c7d05c2597357d777d3fc0394a205d3ffd78aa0bd76501fdd2acc74b0a1"),
    "petersen": ([], "6cc4ea0fc78d45af4648d54efe79ff367d51a5a7faf5fda5280bb84f5db2fa82"),
    "dodecahedral": ([], "23e4fcd0eac77f28632978957b510375d0a9b8a38faa49ae30cbb143790f18b1"),
    "icosidodecahedron": ([], "052f637c098834a222208517b5836f40080d387b085c62d64ce9d0fdc2dc6957"),
    "bi": (["--n", "6"], "da78ab2d1928eb2a516dca7dbdd1ed16cf7213ad3396a47fe3dc24f6f9060665"),
    "torus": (["--n", "6", "--m", "7"],
              "b659028497426c3f13c52f5dddb9818963059ef5dcf80c66fb71d974b71e1573"),
    "twisted-torus": (["--n", "7", "--m", "5", "--l", "2"],
                      "994571193f7afcd5682396515ef9c054ef10c8e359874cf4a3e04645e47b435f"),
    "klein-bottle": (["--n", "6", "--m", "6"],
                     "3d971aa820bd33abb4834bb4ddb47db697de9fec526391d1e96f33536be0149e"),
    "random-regular": (["--n", "12", "--d", "3", "--seed", "5"],
                       "0974daea162c17b76762c401ab0296fce781eeb6ceab8959c19c4322f1062582"),
}

# graph -> (gen arguments, edge for `idleness`)
GRAPHS = {
    "petersen": (["--family", "petersen"], "0,7"),
    "torus-6x6": (["--family", "torus", "--n", "6", "--m", "6"], "0,1"),
    "complete-bipartite-3-3": (["--family", "complete-bipartite", "--m", "3", "--n", "3"], "0,3"),
    "near-cocktail-7": (["--family", "near-cocktail", "--n", "7"], "0,1"),
    "star-3": (["--family", "star", "--n", "3"], "0,1"),
}

CURVATURE_FORMATS = {
    "json": [],
    "json-alpha": ["--alpha", "0,1/3", "--decimals", "4"],
    "csv-alpha": ["--format", "csv", "--alpha", "0,1/3", "--decimals", "4"],
}

# graph -> {output kind: digest}
CURVATURE = {
    "petersen": {
        "json": "2d5df7cc10bd7de0872ef1e0506718e4579c8d16f89d41e074642ac93d77fe66",
        "json-alpha": "9a77333cd05865631a68fe5cc238c5b90f18ab6f886181559b25b0a3b787fe0f",
        "csv-alpha": "20a5246cd230865a8e7226b1e37da2335b6a9559bb16641c67d697e8a4e79c6c",
        "idleness": "59fcc5ac553eefac4ae747d5b018e576cbe6d618fc3cb1776b7685156a1bae81",
    },
    "torus-6x6": {
        "json": "97fde810ecfd9c95ea60adbd99f0d99c0b54c248b54e5f0f85d331bc790b483c",
        "json-alpha": "f5863c6e14d968d4d8d38b1d4c7d754f138f7fe3d85e871d9d47d8c6ae99a2c7",
        "csv-alpha": "b6def57ec986e3959c26c64e7640d73879e37b6d36b2789ba218afd4c2da5c25",
        "idleness": "32371666da65ce04a1fa724fc5c2907f038bf75e550e7f6eecfc5a848d285b4b",
    },
    "complete-bipartite-3-3": {
        "json": "8ebbc3aed36e558faf4226705c74a82dfd536b9e8630ef7b435dbaf5e47a1780",
        "json-alpha": "147be6b0b7bfd2673ac842e589f3906faea762a3b72ad5b7dca1e9a532ef6544",
        "csv-alpha": "12ddf26dc7235ae6cc78bb4f407d956051b0a667aa1ccd75e3961b9da79a2173",
        "idleness": "668302a6f8373265fc5ca708ca8cd19d331e7016e087bdf1ffe8fc69ecf3a41d",
    },
    "near-cocktail-7": {
        "json": "2b522373ddbf60c8f05421abea919e36f5c38d04a1267ad75895090ad1b138c7",
        "json-alpha": "0717b7203b8a8a1cb311e79b457328a2ac4b9bd5343b256968b55f0f7222ea6d",
        "csv-alpha": "1acf5b02558a8ede20882c07125356ecef11877b081731134dab1efd63091f59",
        "idleness": "2140535495d7e8c40111db7ac2e24b90123f46b3499ac81ad09818d4c7fc3313",
    },
    "star-3": {
        "json": "dae76d92dbf2923adce6381ba0febc794ee389854f37639f259a6611db6fbef8",
        "json-alpha": "8c6a523e7b72a7582923f47a99e4d2e3bf5b86f90eb2b3921dd3aaa314b25639",
        "csv-alpha": "667ed750221041c06e96eb596a62992062af289480b131e3903a65ace704973c",
        "idleness": "668302a6f8373265fc5ca708ca8cd19d331e7016e087bdf1ffe8fc69ecf3a41d",
    },
}

# suite -> digest of `verify --suite S --nmax 5 --trials 2` stdout; the
# edge-properties suite is pinned by the acceptance tests instead
SUITES = {
    "main-theorem": "e89a8e77fcb09f5810ee587ba1234ed84b848a98311d57a5bef34fb96b7455ab",
    "ric-one": "78640c7f5635dcd6b15ce2a9f7a2a6f2b844ae60994349bdb92e12c1671c8ffb",
    "family-values": "950dd93c5b1b9ca487a1336906deb9e844b22295e31098e32aa3c3816840468f",
    "bone-idle-families": "2119eff22221629b55799d35ed6a048487f034f17775e78cb1a29b40293e0a7c",
    "no-cubic-bone-idle": "4b723625517e669bc3b629d66a5ed0eb5d759a01763b6748672595240e39b0d2",
    "girth5": "d872b5362c600faf580236ee5eab12261928cc9d80ccb30e8e9123f5722ce224",
    "product-formula": "cb85c1f46510e14001d3d955d03153de237fef52e2d6e67cac032b7a347b0b72",
}

# usage error -> (arguments, digest of stderr); each exits 2 with empty stdout
ERRORS = {
    "unknown-family": (["gen", "--family", "nonsense", "--n", "3"],
                       "58c09100886530c1842faea2de361883cde1b01e39a3f346223c37cea1e0b807"),
    "missing-parameter": (["gen", "--family", "twisted-torus", "--n", "7", "--m", "5"],
                          "d01d98a844c945c456c13cbcb09d719ac98bcb6f8c1deba0aae2fb9be8a0078a"),
    "unknown-suite": (["verify", "--suite", "bogus"],
                      "f89b35758e276bbc56751eb1ce896b154ddac820482a6cfc1e84f3e5b2c31e0c"),
}

# failure reports with the assignment optimum off by one
CORRUPTED = {
    "family-values": "54acf11df48f910d912557d78d77877c48b6ec3b5ec46625c1b3b5a71aa1bf84",
    "edge-properties": "f675fe4c8c9697cf37577c59db5356db292530481a578739594fb875db689b63",
    "product-formula": "7ef7fd87cb4e0d729c50b763c6b9ee27415551ea12c95682bc4595da0ecbd613",
}


def graph_file(tmp_path, name: str) -> str:
    path = str(tmp_path / name)
    code, _, _ = run_cli(["gen", *GRAPHS[name][0], "--out", path])
    assert code == 0
    return path


def test_tables_cover_every_family_and_suite():
    assert set(GEN) == set(cli._FAMILIES)
    assert set(SUITES) | {"edge-properties"} == set(cli._SUITES)


@pytest.mark.parametrize("family", sorted(GEN))
def test_gen_graph6_bytes(family):
    params, digest = GEN[family]
    code, out, _ = run_cli(["gen", "--family", family, *params])
    assert code == 0
    assert sha(out) == digest


@pytest.mark.parametrize("name", sorted(CURVATURE))
def test_curvature_and_idleness_bytes(name, tmp_path):
    path = graph_file(tmp_path, name)
    for kind, flags in CURVATURE_FORMATS.items():
        code, out, _ = run_cli(["curvature", path, *flags])
        assert code == 0
        assert sha(out) == CURVATURE[name][kind], kind
    code, out, _ = run_cli(["idleness", path, "--edge", GRAPHS[name][1]])
    assert code == 0
    assert sha(out) == CURVATURE[name]["idleness"]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_bytes(suite):
    code, out, _ = run_cli(["verify", "--suite", suite, "--nmax", "5", "--trials", "2"])
    assert code == 0
    assert sha(out) == SUITES[suite]


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_usage_error_bytes(case):
    args, digest = ERRORS[case]
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert sha(err) == digest


def test_failure_report_bytes(monkeypatch):
    # pins the Failure text that a ConsistencyError leaves in a report
    corrupt_assignment_optimum(monkeypatch)
    reports = {
        "family-values": check_family_values(),
        "edge-properties": check_edge_properties(
            [("cocktail_party(3)", cocktail_party(3)), ("petersen", petersen())]),
        "product-formula": check_product_formula(),
    }
    for name, report in reports.items():
        assert not report.passed
        assert sha(json.dumps(report.to_dict(), indent=2)) == CORRUPTED[name], name
