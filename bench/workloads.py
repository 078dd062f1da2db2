"""Workloads: seeded input generators, the jobs run on them, and output checks.

A workload's `setup(qlocc, seed, workdir)` builds every input from the seed
and leaves `jobs`: a list of (label, callable) pairs. A job makes one call
into qlocc's public API or CLI, checks the result, and returns None when the
check passes or a one-line reason when it fails. qlocc only ever receives
the generated inputs; the generators themselves live here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

UPB_RESTARTS = 200
ORACLE_TOL = 1e-8


def job_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def rotate_set(Q, s, us, name=None):
    """Local-unitary image (U_1 x ... x U_N)|psi> of every member."""
    full = kron_all(us)
    states = [Q.Ket(s.space, full @ k.amplitudes, k.label) for k in s.states]
    return Q.StateSet(s.space, states, s.name if name is None else name)


def rotate_tree_json(node, us):
    """The same protocol in the rotated frame: each Kraus K on party p
    becomes U_p K U_p^dagger. Works on tree_to_json output."""
    if node is None or "outcomes" not in node:
        return node
    u = us[node["party"]]
    outcomes = []
    for out in node["outcomes"]:
        k = np.array([[complex(re, im) for re, im in row] for row in out["kraus"]])
        k = u @ k @ u.conj().T
        outcomes.append(
            {
                "kraus": [[[float(x.real), float(x.imag)] for x in row] for row in k],
                "child": rotate_tree_json(out["child"], us),
            }
        )
    return {"party": node["party"], "outcomes": outcomes}


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _check_digest(workload: str, label: str, payload):
    pinned = DIGESTS.get(workload, {}).get(label)
    got = digest(payload)
    if pinned is None:
        return f"no pinned digest (got {got})"
    if got != pinned:
        return f"to_json digest {got[:12]} != pinned {pinned[:12]}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r), None)


class Workload:
    name = ""

    def __init__(self):
        self.jobs: list[tuple[str, object]] = []

    def setup(self, Q, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def _shuffle(self, seed: int) -> None:
        order = job_rng(seed, 0, 0).permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]


# ---------------------------------------------------------------------------


class ProfileS4(Workload):
    """2 jobs: hidden_nonlocality_profile on s4 and s2, depth 8; move expansion, interning and the UPB DFS."""

    name = "profile-s4"

    def setup(self, Q, seed, workdir):
        sets = {"s4": Q.build_fixture("s4"), "s2": Q.build_fixture("s2")}
        # fixed inputs in a fixed order: the seed does not apply
        self.jobs = [(label, self._job(Q, label, s)) for label, s in sets.items()]

    def _job(self, Q, label, s):
        def run():
            prof = Q.hidden_nonlocality_profile(s, max_depth=8)
            return _first(self._expect(label, prof), _check_digest(self.name, label, prof.to_json()))

        return run

    @staticmethod
    def _expect(label, prof):
        if label == "s4":
            cab, abc = prof.record("C|AB"), prof.record("A|BC")
            if not (cab.rule == "qubit_times_n" and cab.basis == "EXACT" and cab.activable is False):
                return "C|AB is not settled EXACT non-activable by the qubit_times_n rule"
            if not (abc.activable is True and abc.evidence["activation"]["kind"] == "Activation"):
                return "A|BC is not an Activation"
            return None
        if prof.h_flags[1]["value"] != "zero" or prof.h_flags[2]["value"] != "zero":
            return "s2 H1/H2 flags are not zero"
        abc = prof.record("A|BC")
        if abc.activable is not False or abc.evidence["activation"]["kind"] != "NonActivabilityInClass":
            return "s2 A|BC is not NonActivabilityInClass"
        return None


class FamilyS1General(Workload):
    """6 jobs: both searches on s1_general d=4,6,8, depth 2d; the OPLM solve, no UPB work."""

    name = "family-s1general"
    DIMS = (4, 6, 8)

    def setup(self, Q, seed, workdir):
        # fixed inputs in a fixed order: the seed does not apply
        self.jobs = []
        for d in self.DIMS:
            s = Q.build_fixture("s1_general", d=d)
            self.jobs.append((f"search-d{d}", self._job(Q, f"search-d{d}", s, d, "search")))
            self.jobs.append((f"activation-d{d}", self._job(Q, f"activation-d{d}", s, d, "activation")))

    def _job(self, Q, label, s, d, kind):
        def run():
            if kind == "search":
                cert = Q.search_distinguishing_protocol(s, max_depth=2 * d)
                bad = None if cert.kind == "Distinguishability" and cert.verified else f"search gave {cert.kind}"
            else:
                cert = Q.activation_search(s, max_depth=2 * d)
                ok = cert.kind == "NonActivabilityInClass" and cert.params.get("complete") is True
                bad = None if ok else f"activation gave {cert.kind}"
            return _first(bad, _check_digest(self.name, label, cert.to_json()))

        return run


# ---------------------------------------------------------------------------


def random_product_basis(dims, rng):
    """A random orthonormal product basis of C^d1 x ... x C^dN.

    Recursive splitting: pick a party whose box is still wider than one
    vector, rotate its box subspace by a fresh random unitary and cut it in
    two; the two halves recurse independently. Returns a list of per-party
    local-vector tuples, prod(dims) of them.
    """
    out = []

    def split(box):
        wide = [p for p, b in enumerate(box) if b.shape[1] > 1]
        if not wide:
            out.append(tuple(b[:, 0] for b in box))
            return
        p = wide[int(rng.integers(len(wide)))]
        b = box[p] @ haar_unitary(box[p].shape[1], rng)
        cut = int(rng.integers(1, b.shape[1]))
        for part in (b[:, :cut], b[:, cut:]):
            split(box[:p] + [part] + box[p + 1 :])

    split([np.eye(d, dtype=np.complex128) for d in dims])
    return out


class UpbOracle(Workload):
    """100 jobs: exact UPB check + 200-restart oracle; 20 rotated tiles33 UPBs, 80 extendible random product sets."""

    name = "upb-oracle"
    N_UPB = 20
    N_PER_SPACE = 40

    def setup(self, Q, seed, workdir):
        tiles = Q.build_fixture("tiles33")
        # (set, generated as unextendible, oracle seed)
        self.inputs = []
        for i in range(self.N_UPB):
            rng = job_rng(seed, 1, i)
            us = [haar_unitary(d, rng) for d in tiles.space.party_dims]
            self.inputs.append((rotate_set(Q, tiles, us, name=f"tiles33-rot{i}"), True, int(rng.integers(2**31))))
        for dims, stream in (((3, 3), 2), ((2, 2, 3), 3)):
            space = Q.PartySpace(dims)
            total = int(np.prod(dims))
            for i in range(self.N_PER_SPACE):
                rng = job_rng(seed, stream, i)
                basis = random_product_basis(dims, rng)
                # a proper subset of a product basis whose local vectors still
                # span every party: each dropped member extends it on the support.
                # Sizes cycle from total // 2 to total - 1, the same mix for every seed.
                size = total // 2 + i % (total - total // 2)
                while True:
                    keep = np.sort(rng.choice(total, size=size, replace=False))
                    if all(np.linalg.matrix_rank(np.array([basis[j][p] for j in keep])) == d for p, d in enumerate(dims)):
                        break
                kets = [Q.Ket(space, kron_all(basis[j]), f"v{j}") for j in keep]
                s = Q.StateSet(space, kets, f"opb{'x'.join(map(str, dims))}-{i}")
                self.inputs.append((s, False, int(rng.integers(2**31))))
        self.jobs = [(inp[0].name, self._job(Q, *inp)) for inp in self.inputs]
        self._shuffle(seed)

    def _job(self, Q, s, unextendible, oracle_seed):
        def run():
            v = Q.check_unextendible(s)
            res = Q.numeric_extension_search(s, restarts=UPB_RESTARTS, seed=oracle_seed)
            if v.unextendible != unextendible:
                return f"exact verdict unextendible={v.unextendible}, generated as {unextendible}"
            if (res.residual <= ORACLE_TOL) != (not v.unextendible):
                return f"oracle residual {res.residual:.3g} disagrees with exact verdict"
            return None

        return run


# ---------------------------------------------------------------------------


class ReplayCerts(Workload):
    """100 jobs: CLI protocol verify of rotated certificates, 7 trees x 10-20 seeded frames; qset parsing and replay."""

    name = "replay-certs"
    # seeded frames per certificate. The four cheap trees replay in about the
    # same time, so 10 frames each; then the median of the 100 jobs falls in
    # the middle of the s3_activation replays and p90 in the middle of the
    # s4_abc_activation ones, not at the edge of a cluster of job times.
    FRAMES = {
        "s3_discrimination": 10,
        "s3_activation": 20,
        "s1_recursion": 10,
        "s4_abc_activation": 20,
        "s1_search": 10,
        "s1_general4_search": 10,
        "s1_general6_search": 20,
    }

    def setup(self, Q, seed, workdir):
        s1, s3 = Q.build_fixture("s1"), Q.build_fixture("s3")
        s4_abc = Q.merge_parties(Q.build_fixture("s4"), [(0,), (1, 2)])
        # (label, set, tree json, --activation, expected activation leaves)
        certs = [
            ("s3_discrimination", s3, Q.tree_to_json(Q.builtin_protocol("s3_discrimination")), False, 0),
            ("s3_activation", s3, Q.tree_to_json(Q.builtin_protocol("s3_activation")), True, 4),
            ("s1_recursion", s1, Q.tree_to_json(Q.builtin_protocol("s1_recursion")), False, 0),
            ("s4_abc_activation", s4_abc, Q.tree_to_json(Q.builtin_protocol("s4_abc_activation")), True, 8),
        ]
        for label, s, depth in (
            ("s1_search", s1, 6),
            ("s1_general4_search", Q.build_fixture("s1_general", d=4), 8),
            ("s1_general6_search", Q.build_fixture("s1_general", d=6), 12),
        ):
            cert = Q.search_distinguishing_protocol(s, max_depth=depth)
            certs.append((label, s, Q.tree_to_json(cert.tree), False, 0))

        workdir.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        frames = [cert for cert in certs for _ in range(self.FRAMES[cert[0]])]
        for i, (label, s, tree, activation, leaves) in enumerate(frames):
            rng = job_rng(seed, 4, i)
            us = [haar_unitary(d, rng) for d in s.space.party_dims]
            rotated_tree = rotate_tree_json(tree, us)
            qset_path = workdir / f"job{i:03d}.qset"
            tree_path = workdir / f"job{i:03d}.json"
            qset_path.write_text(Q.serialize_qset(rotate_set(Q, s, us)))
            tree_path.write_text(json.dumps(rotated_tree))
            argv = ["protocol", "verify", "--set", str(qset_path), "--protocol", str(tree_path), "--json"]
            if activation:
                argv.append("--activation")
            self.jobs.append((f"{label}-{i}", self._job(Q, argv, activation, leaves)))
        self._shuffle(seed)

    @staticmethod
    def _job(Q, argv, activation, leaves):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = Q.cli.main(argv)
            if code != 0:
                return f"exit code {code}"
            verdicts = json.loads(buf.getvalue())["verdicts"]
            if activation:
                ok = verdicts["kind"] == "Activation" and verdicts["verified"] and len(verdicts["leaf_evidence"]) == leaves
                return None if ok else f"activation replay gave {verdicts['kind']}"
            return None if verdicts["verdict"] == "PASS-DISCRIMINATION" else f"replay gave {verdicts['verdict']}"

        return run


WORKLOADS = {w.name: w for w in (ProfileS4, FamilyS1General, UpbOracle, ReplayCerts)}
