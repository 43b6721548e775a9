"""Byte-identity gate for the command line.

Each case runs ``cli.main`` in-process and hashes its exit code, stdout and
stderr.  The stored digests pin the exact bytes of generated graphs and
reports, so a refactor that is meant to keep behaviour can prove it did.
After a deliberate output change, print fresh digests with
``PYTHONPATH=src python tests/test_golden.py`` and replace ``DIGESTS``.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from paradoxlab.cli import main
from paradoxlab.centrality import VALID_KINDS
from conftest import BARBELL, SEARCHED

# Input files referenced from argv as "@name".
FILES = {
    "multi.txt": "0 1\n0 1\n1 2\n2 3\n3 0\n3 4\n4 5\n5 3\n",
    "digraph.txt": "directed\n0 1\n1 2\n2 3\n3 0\n0 2\n2 0\n3 1\n",
    "split.txt": "0 1\n1 2\n3 4\n",
    "wheel.mtx": ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                  "5 5 8\n2 1\n3 1\n4 1\n5 1\n3 2\n4 3\n5 4\n5 2\n"),
    "barbell.txt": "".join(f"{i} {j}\n" for i, j in BARBELL),
    "searched.txt": "".join(f"{i} {j}\n" for i, j in SEARCHED),
}

# What closeness and harmonic print as "paradox_holds" on the two
# counterexamples: the inequality fails for closeness on both, and for
# harmonic on the 43-edge graph.
COUNTEREXAMPLES = {("barbell", "closeness"): False,
                   ("barbell", "harmonic"): True,
                   ("searched", "closeness"): False,
                   ("searched", "harmonic"): False}

GEN_MODELS = {
    "path": ("--n", "7"),
    "cycle": ("--n", "9"),
    "star": ("--n", "6"),
    "complete": ("--n", "5"),
    "k_regular": ("--n", "10", "--k", "3"),
    "erdos_renyi": ("--n", "30", "--p", "0.1"),
    "erdos_renyi+lcc": ("--n", "30", "--p", "0.1", "--lcc"),
    "erdos_renyi+no-lcc": ("--n", "30", "--p", "0.1", "--no-lcc"),
    "configuration": ("--degree-sequence", "3,3,2,2,2,1,1,2"),
    "preferential_attachment": ("--n", "20", "--m-attach", "2"),
}

REPORT_INPUTS = {
    "er": ("--model", "erdos_renyi", "--n", "24", "--p", "0.2",
           "--seed", "3"),
    "pa": ("--model", "preferential_attachment", "--n", "18",
           "--m-attach", "2", "--seed", "5"),
    "multi": ("@multi.txt",),
}

MEASURE_ARGS = {
    "degree": (),
    "walk_count": ("--ell", "3"),
    "eigenvector": (),
    "katz": (),
    "pagerank": ("--beta", "0.7"),
    "closeness": (),
    "harmonic": (),
}


def _cases():
    cases = {}
    for label, args in GEN_MODELS.items():
        model = label.split("+")[0]
        for seed in ("0", "1", "2"):
            for fmt in ("edge_list", "matrix_market"):
                cases[f"gen-{label}-s{seed}-{fmt}"] = (
                    "gen", "--model", model, *args, "--seed", seed,
                    "--file-format", fmt)
    for command in ("centrality", "paradox", "compare"):
        for source, source_args in REPORT_INPUTS.items():
            for kind in VALID_KINDS:
                cases[f"{command}-{source}-{kind}"] = (
                    command, *source_args, "--measure", kind,
                    *MEASURE_ARGS[kind])
        if command != "compare":
            for kind in VALID_KINDS:
                cases[f"{command}-wheel-{kind}-csv"] = (
                    command, "@wheel.mtx", "--measure", kind,
                    *MEASURE_ARGS[kind], "--format", "csv")
        cases[f"{command}-er-katz-alpha"] = (
            command, *REPORT_INPUTS["er"], "--measure", "katz",
            "--alpha", "0.05")
        cases[f"{command}-digraph-pagerank"] = (
            command, "@digraph.txt", "--measure", "pagerank")
        cases[f"{command}-digraph-degree"] = (
            command, "@digraph.txt", "--measure", "degree")
        cases[f"{command}-split-degree"] = (
            command, "@split.txt", "--measure", "degree")
    for kind in VALID_KINDS:
        extra = ("--alpha", "0.05") if kind == "katz" else MEASURE_ARGS[kind]
        cases[f"bias-er-{kind}"] = (
            "bias", "--model", "erdos_renyi", "--n", "20", "--p", "0.2",
            "--graphs", "6", "--seed", "7", "--measure", kind, *extra)
    cases["bias-k_regular-degree"] = (
        "bias", "--model", "k_regular", "--n", "12", "--k", "3",
        "--graphs", "5", "--seed", "1", "--measure", "degree")
    cases["bias-pa-eigenvector"] = (
        "bias", "--model", "preferential_attachment", "--n", "15",
        "--m-attach", "2", "--graphs", "5", "--seed", "2",
        "--measure", "eigenvector")
    cases["bias-er-katz-default-alpha"] = (
        "bias", "--model", "erdos_renyi", "--n", "20", "--p", "0.2",
        "--graphs", "3", "--measure", "katz")
    # Ensembles whose members are resampled for connectivity: 253, 141
    # and 203 attempts for their 100 members.
    cases["bias-ring-pagerank"] = (
        "bias", "--model", "k_regular", "--n", "30", "--k", "2",
        "--measure", "pagerank")
    cases["bias-er-nolcc-walk_count"] = (
        "bias", "--model", "erdos_renyi", "--n", "20", "--p", "0.2",
        "--no-lcc", "--measure", "walk_count")
    cases["bias-configuration-degree"] = (
        "bias", "--model", "configuration",
        "--degree-sequence", "3,3,2,2,2,1,1,2", "--measure", "degree")
    for label, args in {
            "path6": ("--model", "path", "--n", "6"),
            "star9": ("--model", "star", "--n", "9", "--trials", "5",
                      "--seed", "4"),
            "cycle20": ("--model", "cycle", "--n", "20", "--ell", "3"),
            "er30": ("--model", "erdos_renyi", "--n", "30", "--p", "0.15",
                     "--seed", "2", "--beta", "0.6"),
            "multi": ("@multi.txt",),
            "wheel": ("@wheel.mtx", "--trials", "8"),
            "digraph": ("@digraph.txt",),
            "split": ("@split.txt",)}.items():
        cases[f"identities-{label}"] = ("identities", *args)
    # Each iterative solver running out of its budget (exit 3).
    for label, args in {
            "eigenvector": ("--max-iters", "40"),
            "pagerank": ("--beta", "0.05", "--max-iters", "20"),
            "katz-1": ("--alpha", "0.45", "--max-iters", "1"),
            "katz-5": ("--alpha", "0.45", "--max-iters", "5")}.items():
        cases[f"paradox-path60-{label}-budget"] = (
            "paradox", "--model", "path", "--n", "60",
            "--measure", label.split("-")[0], *args)
    # Node 0's eccentricity is 299 and 100, at least 64, so closeness and
    # harmonic take the long-search side; every other graph here is short.
    for kind in ("closeness", "harmonic"):
        cases[f"centrality-path300-{kind}"] = (
            "centrality", "--model", "path", "--n", "300", "--measure", kind)
        cases[f"paradox-cycle200-{kind}"] = (
            "paradox", "--model", "cycle", "--n", "200", "--measure", kind)
    for source, kind in COUNTEREXAMPLES:
        cases[f"paradox-{source}-{kind}"] = (
            "paradox", f"@{source}.txt", "--measure", kind)
    return cases


CASES = _cases()


def run_case(argv, directory):
    argv = [str(directory / tok[1:]) if tok.startswith("@") else tok
            for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, text in FILES.items():
        (directory / name).write_text(text)
    return directory


DIGESTS = {
    "bias-configuration-degree":
        "9213a83c1ba06a912cef49988c2e75221a9b919de255820e57aa0114d1b48b8d",
    "bias-er-closeness":
        "6e2d2585d7a603e77498f3352b267c249ecb3e32e3402e0e2115207e5c96c456",
    "bias-er-degree":
        "20f4a46fe82819b8ffbce0967da62dcaadb64d5b8a70631e870875cdc181e72a",
    "bias-er-eigenvector":
        "d918b180e9496d1289b40c1d7d68b6e9550047aeaefbdc2d2d5bb9683970e19e",
    "bias-er-harmonic":
        "1fe3a3dbbe43e6699f602f9579d67402e9ef1155266c4d551d8ab28c63d13f15",
    "bias-er-katz":
        "9be4717139b32df4083b963ae6b04515917ee8d7075fdd75e57b9d1bb99cb692",
    "bias-er-katz-default-alpha":
        "99865327fb319be8977e63ccc23c116182395613dec136bd52f0edc54d465f60",
    "bias-er-nolcc-walk_count":
        "6f5a544736c07083149a44d7f8d099d24087c4f4cd73a4ce381bda55ba9d7bd7",
    "bias-er-pagerank":
        "3aa99732d66e9f689fe4bb99ed0c3389eb3a0e416681df8f8b36ac2e989c06bb",
    "bias-er-walk_count":
        "4146b83cf2db8c2d702d4934c6f5902e60d34eab5f6d3838a841819d2b184bac",
    "bias-k_regular-degree":
        "7ace7fbbf9ce0259ed773d065ee9d222240900972677b666b0d9939e1df0114b",
    "bias-pa-eigenvector":
        "2126bd765c3a9cf788b1e43d3022d760ac62b59da742e198998dd5481a905b26",
    "bias-ring-pagerank":
        "d90e0367a71aa9eee9f5f6869875c5005e61f1e0adf6b1fc66315c2abf92f17e",
    "centrality-digraph-degree":
        "8ee9646e78637435f883e60af27d74a2c15a8f86e2bf0d202161b7d3dea1b0e6",
    "centrality-digraph-pagerank":
        "ab5c449c1ca5c4e573b93b87b1ad132de983994b262ec6b4e340ae6002da236d",
    "centrality-er-closeness":
        "c95a954241cbdc24ae6f9a36ae8554196eceeeec672cc3bd403259e5fb8a1422",
    "centrality-er-degree":
        "b7176366da5bafaa1e5670bbfdcda46b77f93b925a5e8f4b4a9320a4dd32968b",
    "centrality-er-eigenvector":
        "b6b95731630322f7cec8efee4e299e94e7b76efaa718c31a7f2e42fa7b6afb0d",
    "centrality-er-harmonic":
        "67f7623120f534ffc6610e24125489a95e0e41c014c30d5122bec48bb69a54e1",
    "centrality-er-katz":
        "158dbe696a9a661981c0c5708e90bf3d2a5bc6f0aea8128b24d80aeecd67fbce",
    "centrality-er-katz-alpha":
        "125176f6329d941dd7512af0a38c9c5dcf87ed79fc2e8ad8c2a60260e5069dfb",
    "centrality-er-pagerank":
        "e796f82db25d88cfbc411000e8537fa5bda8b07769ab05e64c4aebda85c25cac",
    "centrality-er-walk_count":
        "b3d9afdebd0925ee854f312ec862a86f7587ff77958cce1c5cdfbc6eefd77670",
    "centrality-multi-closeness":
        "d48e7e2ada85aecc1708c5e45fe93a8285a33ed67dd47cca234521e887d74a24",
    "centrality-multi-degree":
        "0b1ee830252d8bea2273d8dc4f19f5f9877e811570227ee12ec158192542726c",
    "centrality-multi-eigenvector":
        "e2c345cd6d2164824a05155e500f5c7a23a5950ceb5f1a775ed8c08c479d2c2a",
    "centrality-multi-harmonic":
        "990ca4df70bd9956aec1e586d51d66bdced1be90d7bcce393ec15894bb323fa6",
    "centrality-multi-katz":
        "15f3fcfa5aaffaf26451cf65e8744de68183eed4b756a552911ce53f5b66030c",
    "centrality-multi-pagerank":
        "8f6a9ca3ad67877eb6eb3173a15aee21874e5ad0704b9a4e927d8519ab4e7342",
    "centrality-multi-walk_count":
        "06611fa8e48b80424471cbbf4a81fc426867193586b02d2ed68a5b03a882ea66",
    "centrality-pa-closeness":
        "a7bbb623997c59081195632fa93ba55e3f7046f45f153bd4ca30229c54c55574",
    "centrality-pa-degree":
        "597e87b8800b9c1df851b7e2528ad48cf309dca24a6170d52032825f17ada44a",
    "centrality-pa-eigenvector":
        "f9f8191a286d8a53f9e31bfcc69a3e9f98e5bd4e0c1be39872ef4b6080766ed2",
    "centrality-pa-harmonic":
        "e03befa7a4ad8826e74bbe05f54b75ffa9e91f0c355b56e3794b4ed78bc375e7",
    "centrality-pa-katz":
        "103feed814de6216053f22a359fb49787ac82b70a4478646db10d40406f87aa7",
    "centrality-pa-pagerank":
        "b867f6d7207986a7d69317ca2eeede9a46c2e774f6fac3bd1cb4548a86693a68",
    "centrality-pa-walk_count":
        "96a9d3469c37435563b747ef3e08e43fa2f405faef1d530cb9c52fd62f2213c0",
    "centrality-path300-closeness":
        "d99f46c45a9a8a1c7bd97c5b695249e195f74e18182e405b529a18931b1b04e0",
    "centrality-path300-harmonic":
        "c83619cb829f2e097ff8666f7dd30e63b73f5c2010e8d18ef081760098c307c9",
    "centrality-split-degree":
        "a9ece9d396f9f96cfd636c7734fb90244b6a5f7881c773ffc03937060f490203",
    "centrality-wheel-closeness-csv":
        "b408bb6a06a44b3791bfe7e96a5b8a2c5ae537618b0fc4f33206c3c66660e165",
    "centrality-wheel-degree-csv":
        "783c82b603ebef84cb882d15c97cc536f532769fc1f417eee2035672e9bf7b4c",
    "centrality-wheel-eigenvector-csv":
        "13cb0fd066781f588da7cc35b3e8de803c6be35ee0f63fde7252dd6ecef4d60a",
    "centrality-wheel-harmonic-csv":
        "c55b8953489d4ec2a4fed15ef0988eea51042c7f0fd9879fc229cbff0c53250b",
    "centrality-wheel-katz-csv":
        "415d53896dbfe2773641def1b96d99cb3c35c9e9b064a696ee3d079bc05a9abf",
    "centrality-wheel-pagerank-csv":
        "e6b792370717139d4921bcdabc9fcf65d45f479f517f1bfef3195a19ddf01006",
    "centrality-wheel-walk_count-csv":
        "b5b497f5e41391b488f2ae1f346aaaba1f8b90a22c079e5f9539d7573c872107",
    "compare-digraph-degree":
        "8ee9646e78637435f883e60af27d74a2c15a8f86e2bf0d202161b7d3dea1b0e6",
    "compare-digraph-pagerank":
        "47b86ec15b5c81bdc56c26ce822e63bd6f0cded452dc8a6f14d1f61ab1138aff",
    "compare-er-closeness":
        "8623bce58a54107e3f81a409241954da9b377d4c070d350e567416fd1abf150f",
    "compare-er-degree":
        "404bfaadc05617097a091e725e53618393ad955ffbfb84433052c936a61fbf15",
    "compare-er-eigenvector":
        "71ff36a76ee335ec39901aa8ae790f3ea5f90eedc0cc021500c634a595ab9ef1",
    "compare-er-harmonic":
        "7455a3738636ee4cd84c5b989b129abc2f6792df02d4e9c82a1e86b1fe95c8a1",
    "compare-er-katz":
        "e97192a9173c1f73edab27522ba60ab376608052e4dfd9ffaeaa032bd252b61d",
    "compare-er-katz-alpha":
        "a3014f4951e59d7286473352b3fb232dbe0264a862af1ece1d884cdb61ab0aa4",
    "compare-er-pagerank":
        "b4a9f7f3d62419796b40f87e80e8eb9f77574b918e2154b0d54b508d39aa99e1",
    "compare-er-walk_count":
        "36d902ab91b930d70657334703352af4816497eea0cb50dd8cf536d704a39cb7",
    "compare-multi-closeness":
        "9bf34bbb90f7d5c0bd737f84cda73cdd7bb5bd7248916e40a7a416f52e9b54b4",
    "compare-multi-degree":
        "38d892c137d6d2d0e84445e56f8ccc0fa41123bc34efcf54d24e4b72daec6bdd",
    "compare-multi-eigenvector":
        "eb96cfff35fdf395d334c3a277d528e9e6049019b232a62c2af405b94a266f2f",
    "compare-multi-harmonic":
        "63616853f9c9327e91ba6c261529b1991b8898aa26c3cc48399a2956d2e64f23",
    "compare-multi-katz":
        "64b0c6005bf9e82f4831f55269bdeb5346ddffc18ac81ea7c20387d03ea0ca7e",
    "compare-multi-pagerank":
        "84a26b117c7faf30cadc93ca109b241db0820590d125de52790f2b41a34bb67b",
    "compare-multi-walk_count":
        "b4649decffab2724da5745ab91c88730ac14c92f4addf0d156c20b05b507956c",
    "compare-pa-closeness":
        "e2e33a6259b70c3769ceddf6047f70ac9f43a0b495c7003104152862e491cdd1",
    "compare-pa-degree":
        "d10ff36f4b1ee3066769af6ef3b5766ea0b79c5f685d0e8e4beef8ba577a8bde",
    "compare-pa-eigenvector":
        "91a36400c116f070b72b5524a36a71c237d0abbedc97760a0b94dd178ffbfbc1",
    "compare-pa-harmonic":
        "4406398c552d3c0102bb8391be675540e7840f5135b5e824a577f638afb5171b",
    "compare-pa-katz":
        "be9cbd793d2dfc4bac9cebf80a43853c0d29df2cc952d46fa7bf120224489a75",
    "compare-pa-pagerank":
        "88c024b5cd8bd36f77eeb8842b34966327392134926290227f6760993d14cd90",
    "compare-pa-walk_count":
        "cbf605dcb45ed9daae1c32f0903ace8f15d07e38437cb2613b651821366f404b",
    "compare-split-degree":
        "a9ece9d396f9f96cfd636c7734fb90244b6a5f7881c773ffc03937060f490203",
    "gen-complete-s0-edge_list":
        "1ad9f8afcc10cc253a736e0c02f9d101ff95f3e656bdca29e051365d70d6f1c3",
    "gen-complete-s0-matrix_market":
        "8c064fbccba39a7980030bf9fa12641de11a85dbf305e3edadef2ea6216fbdcd",
    "gen-complete-s1-edge_list":
        "1ad9f8afcc10cc253a736e0c02f9d101ff95f3e656bdca29e051365d70d6f1c3",
    "gen-complete-s1-matrix_market":
        "8c064fbccba39a7980030bf9fa12641de11a85dbf305e3edadef2ea6216fbdcd",
    "gen-complete-s2-edge_list":
        "1ad9f8afcc10cc253a736e0c02f9d101ff95f3e656bdca29e051365d70d6f1c3",
    "gen-complete-s2-matrix_market":
        "8c064fbccba39a7980030bf9fa12641de11a85dbf305e3edadef2ea6216fbdcd",
    "gen-configuration-s0-edge_list":
        "c287436163a8990e1757181afc37b34dc4aeedf6b68ca38f76ff0095d45e2755",
    "gen-configuration-s0-matrix_market":
        "54c03a266f96cf2771978f66a707e01b66609aa92094a8f5b78d121c8f9ba0d6",
    "gen-configuration-s1-edge_list":
        "c83ce1f722f8e30118c1d7445cf667bb533a8b5fb278204c4093cb26732d3cbd",
    "gen-configuration-s1-matrix_market":
        "2b31c2d755921300b20bbe5f8ecd4902c73fff2277ba5cfdb0f7da69e01c9a2a",
    "gen-configuration-s2-edge_list":
        "d89daa7904670034cda2fba0072f9a874ceaf8e538b9c3f1c1848714f3199a54",
    "gen-configuration-s2-matrix_market":
        "c0ea89811c5fafa9a215f8198994b37c9c3d09f44db148aa8f7aeae8672bdfeb",
    "gen-cycle-s0-edge_list":
        "28c6e9a372b1b467bdfd09064071d3c28b10f9518f3a615e583caf214f2e0d4c",
    "gen-cycle-s0-matrix_market":
        "278ddd159c14ca70eda5865bd399b6d82803adb10fbff0f91f8b6ebe5761fde8",
    "gen-cycle-s1-edge_list":
        "28c6e9a372b1b467bdfd09064071d3c28b10f9518f3a615e583caf214f2e0d4c",
    "gen-cycle-s1-matrix_market":
        "278ddd159c14ca70eda5865bd399b6d82803adb10fbff0f91f8b6ebe5761fde8",
    "gen-cycle-s2-edge_list":
        "28c6e9a372b1b467bdfd09064071d3c28b10f9518f3a615e583caf214f2e0d4c",
    "gen-cycle-s2-matrix_market":
        "278ddd159c14ca70eda5865bd399b6d82803adb10fbff0f91f8b6ebe5761fde8",
    "gen-erdos_renyi+lcc-s0-edge_list":
        "6075ece84ea91b302ff528817b55270caec987be825b0ba88e99dec79cc3658d",
    "gen-erdos_renyi+lcc-s0-matrix_market":
        "563532135b1546f5d6a1d0c857adf44fe65971d74474e195bf0995db37b51e4b",
    "gen-erdos_renyi+lcc-s1-edge_list":
        "003cd929046ff5a7c1a93b27a2ce64bd7e025a12b97c596fb74a2228df58c9db",
    "gen-erdos_renyi+lcc-s1-matrix_market":
        "c70442c3411be1a33620f2178fa4d81c92e9ee3066b02eda7d8af5c876467c32",
    "gen-erdos_renyi+lcc-s2-edge_list":
        "2c080d71b5a5282144569bc98a3a8dc29c4828f8024204f2beb66e52384bf133",
    "gen-erdos_renyi+lcc-s2-matrix_market":
        "976e387d6f14b9eb71ae7d7f5606929bbb45fa21250912b816133b70bdd335a2",
    "gen-erdos_renyi+no-lcc-s0-edge_list":
        "f4e0ff2095ae9ac0247e6c5881df7d728dc2170a5160258f098c011f7c1341f2",
    "gen-erdos_renyi+no-lcc-s0-matrix_market":
        "ff87514f727ae6d75546cdd4eb3f4216ece9ce1dbeaa83db547dcf9662615c4e",
    "gen-erdos_renyi+no-lcc-s1-edge_list":
        "88518bf09773a0d74de5c1000b930da9a6fd62c7e3eb816cb7c3c46b3eed558f",
    "gen-erdos_renyi+no-lcc-s1-matrix_market":
        "a60d2a2fd316b8f46a81b23f87eb42226dd9cdae6685a136f8fe5d5e95923b3f",
    "gen-erdos_renyi+no-lcc-s2-edge_list":
        "2f9a08bdd92cb12bbf5f5b3f606433ad60132602e4ff228a738c858dcc7f8e0f",
    "gen-erdos_renyi+no-lcc-s2-matrix_market":
        "6272f265ff694c08bd4905fdf6eaf160705acf07ee148165c6362ef9defa628d",
    "gen-erdos_renyi-s0-edge_list":
        "6075ece84ea91b302ff528817b55270caec987be825b0ba88e99dec79cc3658d",
    "gen-erdos_renyi-s0-matrix_market":
        "563532135b1546f5d6a1d0c857adf44fe65971d74474e195bf0995db37b51e4b",
    "gen-erdos_renyi-s1-edge_list":
        "003cd929046ff5a7c1a93b27a2ce64bd7e025a12b97c596fb74a2228df58c9db",
    "gen-erdos_renyi-s1-matrix_market":
        "c70442c3411be1a33620f2178fa4d81c92e9ee3066b02eda7d8af5c876467c32",
    "gen-erdos_renyi-s2-edge_list":
        "2c080d71b5a5282144569bc98a3a8dc29c4828f8024204f2beb66e52384bf133",
    "gen-erdos_renyi-s2-matrix_market":
        "976e387d6f14b9eb71ae7d7f5606929bbb45fa21250912b816133b70bdd335a2",
    "gen-k_regular-s0-edge_list":
        "b2cd4cc514528cba2e50a45cf514d6d46ab1f38b9d81bc01b751ba594602bdce",
    "gen-k_regular-s0-matrix_market":
        "47be7ce162eb7fe5a80964626b216f4f70eec44fda7bd3d79559471b4df10b28",
    "gen-k_regular-s1-edge_list":
        "380078afd8cd9a210cf03e842fccb1529780fc78365b3c7461a849da0a8dfbda",
    "gen-k_regular-s1-matrix_market":
        "9f4ab6ab8186d0ec20789b9e209f5a84c7c4dbbdb82aa59ddf0ef07e8c9cfcaa",
    "gen-k_regular-s2-edge_list":
        "d053bff2b7874152018ecfad3a85601ca645d22d8f58100c194e24b4245240e6",
    "gen-k_regular-s2-matrix_market":
        "42080be78261e09e82da53a3e4311dedae9f41960086bcceaa187244e355b681",
    "gen-path-s0-edge_list":
        "4df827889e961f0237615e6b423aefbdf88fc183994ff416a06ce2d836bb40ea",
    "gen-path-s0-matrix_market":
        "a730dadc43ce52d5f68837538d02b8bf0389c10afc8d92aac76a80f0fba6d907",
    "gen-path-s1-edge_list":
        "4df827889e961f0237615e6b423aefbdf88fc183994ff416a06ce2d836bb40ea",
    "gen-path-s1-matrix_market":
        "a730dadc43ce52d5f68837538d02b8bf0389c10afc8d92aac76a80f0fba6d907",
    "gen-path-s2-edge_list":
        "4df827889e961f0237615e6b423aefbdf88fc183994ff416a06ce2d836bb40ea",
    "gen-path-s2-matrix_market":
        "a730dadc43ce52d5f68837538d02b8bf0389c10afc8d92aac76a80f0fba6d907",
    "gen-preferential_attachment-s0-edge_list":
        "d3cea29434c1608e526941046c57a706e063bcb2f64b6368135f54860504bbf6",
    "gen-preferential_attachment-s0-matrix_market":
        "c45c20f9d9b950e95ac01fffa1975b7ea0ff0ced00a37ac9cc2cd01cc577c500",
    "gen-preferential_attachment-s1-edge_list":
        "47e1c38c343c07e8965682e86f423a2596eff2d47225a0e34dcb4ea94665fa5c",
    "gen-preferential_attachment-s1-matrix_market":
        "1f5c6ac1eecc4a779da9fc9587d0b8179590e9f71fa1e3c5301f1ea7788e2810",
    "gen-preferential_attachment-s2-edge_list":
        "961fe4905acbd7e134ef9218ff050aa2c85873fbbd83849da292a86c622a6bf0",
    "gen-preferential_attachment-s2-matrix_market":
        "0beffb5114d6cf7204b3739933eef91e5df58f733efd2edce37cb479e192b674",
    "gen-star-s0-edge_list":
        "6fac5380080fe567beeed52a18f41ba537fcb6dca77312dd02c930d26770922d",
    "gen-star-s0-matrix_market":
        "bc35d6ca8382a89f566ab3d57854e701b2ac14aab99064b20b9b7d1964183f94",
    "gen-star-s1-edge_list":
        "6fac5380080fe567beeed52a18f41ba537fcb6dca77312dd02c930d26770922d",
    "gen-star-s1-matrix_market":
        "bc35d6ca8382a89f566ab3d57854e701b2ac14aab99064b20b9b7d1964183f94",
    "gen-star-s2-edge_list":
        "6fac5380080fe567beeed52a18f41ba537fcb6dca77312dd02c930d26770922d",
    "gen-star-s2-matrix_market":
        "bc35d6ca8382a89f566ab3d57854e701b2ac14aab99064b20b9b7d1964183f94",
    "identities-cycle20":
        "6d88b9245a245f4c5738f21d2ebb3d170afd9ee9308cfd4ed8ddbbe818c0378c",
    "identities-digraph":
        "189a01754f60e745399868891f472b0bf2837bf1d7a286574408cfc5830f35fd",
    "identities-er30":
        "620c9c37a4ccc3357b5104d59cfb40916cd9468477eb66837f185311b4d02a2e",
    "identities-multi":
        "4f637e84a9c1bd29380b665a9ddaa95ccdf614d4816c4ace5f4ad9d8e48e4de2",
    "identities-path6":
        "6be6e9781432c947bd2ff8ba62bc8b4d319a081104a5c0d5a3f108ee5e73430b",
    "identities-split":
        "21742fca7a8fb8afc71f3fe36ff88765713ab778d5e5610cae1fe6033928253e",
    "identities-star9":
        "feafdd7c2f92600128353d5e34ecac7097fb37aaffa84d387b70431609761565",
    "identities-wheel":
        "69d8f9bd94fbef62500b94575a3c3a05d89568485c4e32f332ce6d2c273aeef3",
    "paradox-barbell-closeness":
        "85a8629ed1e8942c6259a4d8609b71ed05eb4ac0a5a734a139d8e1bb09730f45",
    "paradox-barbell-harmonic":
        "f56c1336f368401958b57a060b499f71d8ef1655ef05665b02d844edb68a35de",
    "paradox-cycle200-closeness":
        "04a35ca7cd8aa2ee9265210cb2b0751b40f02c9173f04cd73f250a303ae30dc6",
    "paradox-cycle200-harmonic":
        "0c57f64285d6b76c14dff25bf5c575b691d9485c569bf898d5cce0112f52672f",
    "paradox-digraph-degree":
        "8ee9646e78637435f883e60af27d74a2c15a8f86e2bf0d202161b7d3dea1b0e6",
    "paradox-digraph-pagerank":
        "c3f73ad4b379373017646ec82738de3ff2e21cbb7f8b2b4b7a3bfb7da6d71a0b",
    "paradox-er-closeness":
        "bdb2ea7091c3ba1e9fc437f9b8ee1ae88f506393a09f0858809df92353c4c957",
    "paradox-er-degree":
        "9e325155a9c9225d69908a149bff09285abb8868fae8cd436f798705bdbb95db",
    "paradox-er-eigenvector":
        "6ded5038cb388c1640aaf1caafbde5f15ff5a5369f440ec93333401ecf2b55ed",
    "paradox-er-harmonic":
        "fb65d62008e483ccbeccf0cad4e07b6cc5a0c519f50482c89e34a614a114cb69",
    "paradox-er-katz":
        "6dc3065da2865659493e63fa0ae88ff8c422723064a17caa624ce7e275e1f958",
    "paradox-er-katz-alpha":
        "8627f8ca170af06cea54a88cbb6694349c9ec0a7d287c3ac115a915602359140",
    "paradox-er-pagerank":
        "0671e1ffe824669ac17c254a86d728d498293a5a064e958329f726d923e58fcf",
    "paradox-er-walk_count":
        "8a8fb7692104fab15bfcecfab458eee89885d572cc774365976ec9dd624b386b",
    "paradox-multi-closeness":
        "413dbbc0618579eed1e5687d4c53cd093a21a159248c9ad514cd9e339ab42ebb",
    "paradox-multi-degree":
        "08f08ca97059c7237f6e5e1cb16039b53f353e28aeb2dd9b93ae923a6680653c",
    "paradox-multi-eigenvector":
        "6bdaa596356b2685e46647c0cf9db9434f81b1d87e294b0edffc46fcd5773b30",
    "paradox-multi-harmonic":
        "03fd8a5ab68a9633976d4e10caec4429377bce489a5fab4ec15da7e7b8c119cd",
    "paradox-multi-katz":
        "b8b8a11230c0d8fbf326522f6cdda18c5966af17c5e503e078612933e1269219",
    "paradox-multi-pagerank":
        "0fd904f2512f5a2d781e1c7e5884ed8ef22e85868cf3296a5ef6a1f6dc3649d9",
    "paradox-multi-walk_count":
        "9ad7794bf6ec5ae76c0de0be5bfd139fe4c6b1b1ab20f79396edafd664e1fde7",
    "paradox-pa-closeness":
        "a39bf6f45348cbe5aebd7e31b8f878e752386227f5ea9c4fb6cb6819916dccb2",
    "paradox-pa-degree":
        "d538e7da4e0a884f5181f79c2c67a0dcbbc68b058fa4374bb276f299fc0a6484",
    "paradox-pa-eigenvector":
        "f58b47cab208b96cf085b1e71ed117a97e8ce88a8f7764a8c28719e1642dc501",
    "paradox-pa-harmonic":
        "30a1c9682cbfbbee1199abd263aac0fa15eb702780c3bc0db6a1bae61ea909ba",
    "paradox-pa-katz":
        "07238bb620b6324dcf02f1cbe089885911f15bb3b7b41f7bff2199a7e0e7d137",
    "paradox-pa-pagerank":
        "48b9c15c00a04a50f2b53fa5daf23fd429ea54e5ea2a39709446620985d93cae",
    "paradox-pa-walk_count":
        "4df36baceb054b44be4af7e2ccfe7e7734f82a543e053bb2f9ac423034ab344b",
    "paradox-path60-eigenvector-budget":
        "3fd9cdc4a8b3ed42cc8834a7a561eaeccf2691ef1acbe2eb6fdb880f6279d7ff",
    "paradox-path60-katz-1-budget":
        "5b6a03e6affa240002203d70ce32b0dcba2af779e810ffa9fd6437b62ffb4158",
    "paradox-path60-katz-5-budget":
        "c5e45b8ab767e201f3dceca7dd7aeb7bb7b3b943b8d8e6a822fd47fe1adccc99",
    "paradox-path60-pagerank-budget":
        "315c769b76696c3842ce5b172f510c362cd7600cab9f69d187f3444d23a83a12",
    "paradox-searched-closeness":
        "26537d3b7f20ec626c2046753989e1d1b86921950835fb813e6f86f531c60c49",
    "paradox-searched-harmonic":
        "96c281dc1af601b4382643e85858e6bae2a880ea00e307f783e90f2fa0906aaf",
    "paradox-split-degree":
        "a9ece9d396f9f96cfd636c7734fb90244b6a5f7881c773ffc03937060f490203",
    "paradox-wheel-closeness-csv":
        "b408bb6a06a44b3791bfe7e96a5b8a2c5ae537618b0fc4f33206c3c66660e165",
    "paradox-wheel-degree-csv":
        "783c82b603ebef84cb882d15c97cc536f532769fc1f417eee2035672e9bf7b4c",
    "paradox-wheel-eigenvector-csv":
        "13cb0fd066781f588da7cc35b3e8de803c6be35ee0f63fde7252dd6ecef4d60a",
    "paradox-wheel-harmonic-csv":
        "c55b8953489d4ec2a4fed15ef0988eea51042c7f0fd9879fc229cbff0c53250b",
    "paradox-wheel-katz-csv":
        "415d53896dbfe2773641def1b96d99cb3c35c9e9b064a696ee3d079bc05a9abf",
    "paradox-wheel-pagerank-csv":
        "e6b792370717139d4921bcdabc9fcf65d45f479f517f1bfef3195a19ddf01006",
    "paradox-wheel-walk_count-csv":
        "b5b497f5e41391b488f2ae1f346aaaba1f8b90a22c079e5f9539d7573c872107",
}


def test_corpus_matches_digests():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case, input_dir):
    assert run_case(CASES[case], input_dir) == DIGESTS[case]


@pytest.mark.parametrize("source, kind", sorted(COUNTEREXAMPLES))
def test_counterexamples_print_their_verdicts(source, kind, input_dir,
                                              capsys):
    assert main(["paradox", str(input_dir / f"{source}.txt"),
                 "--measure", kind]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["paradox_holds"] is COUNTEREXAMPLES[source, kind]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, text in FILES.items():
            (directory / name).write_text(text)
        print("DIGESTS = {")
        for case in sorted(CASES):
            print(f'    "{case}":\n        "{run_case(CASES[case], directory)}",')
        print("}")
