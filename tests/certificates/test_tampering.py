"""Adversarial tests: the replayer must reject tampered artifacts.

Two tiers of defense are exercised separately:

* **envelope** — mutate the payload but keep the recorded digest: the
  store rejects the document before the payload is even decoded;
* **semantic** — mutate the payload *and* re-issue the envelope (so the
  digest is valid again): the independent replay checks must catch the
  lie on their own.

The required tampering modes — dropped chain step, edited witness state,
swapped initial condition, truncated refutation table, forged fingerprint
— are all covered in the semantic tier, plus a few extras (duplicated
chain link, flipped verdict field, wrong model key), and a batched
kbp-solve's escape steps, closed sets and resolution tables.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.certificates import (
    Artifact,
    CertificateError,
    loads,
)
from repro.certificates.replay import replay_artifact


# ----------------------------------------------------------------------
# shared emitted artifacts (emission is ~1s total; do it once per module)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig1_artifact():
    from repro.certificates.emit import certify_fig1

    ((_, artifact),) = certify_fig1()
    return artifact


@pytest.fixture(scope="module")
def fixpoint_artifact():
    from repro.certificates.emit import certify_fixpoint_invariant

    emitted = dict(certify_fixpoint_invariant())
    (artifact,) = [a for a in emitted.values() if a.kind == "fixpoint"]
    return artifact


@pytest.fixture(scope="module")
def refutation_artifact():
    """The lossy sequence-transmission spec check, refuted by a lasso."""
    from repro.certificates.emit import certify_seqtrans_standard

    ((_, artifact),) = certify_seqtrans_standard("lossy")
    return artifact


def reissue(artifact: Artifact, payload) -> Artifact:
    """Tamper *and* forge the digest: a fresh envelope over a mutated payload."""
    return Artifact(kind=artifact.kind, model=artifact.model, payload=payload)


def expect_rejection(artifact: Artifact, match=None):
    with pytest.raises(CertificateError, match=match):
        replay_artifact(artifact)


# ----------------------------------------------------------------------
# envelope tier: any payload edit without a digest forgery is fatal
# ----------------------------------------------------------------------


def test_envelope_rejects_payload_edit_with_stale_digest(fig1_artifact):
    doc = fig1_artifact.to_document()
    doc["payload"] = copy.deepcopy(doc["payload"])
    doc["payload"]["refutations"].pop()
    with pytest.raises(CertificateError, match="digest mismatch"):
        loads(json.dumps(doc))


def test_envelope_rejects_forged_digest_value(fig1_artifact):
    doc = fig1_artifact.to_document()
    doc["digest"] = "sha256:" + "0" * 64
    with pytest.raises(CertificateError, match="digest mismatch"):
        loads(json.dumps(doc))


def test_envelope_rejects_unknown_kind(fig1_artifact):
    doc = fig1_artifact.to_document()
    doc["kind"] = "totally-new-kind"
    with pytest.raises(CertificateError, match="unknown certificate kind"):
        loads(json.dumps(doc))


# ----------------------------------------------------------------------
# semantic tier: the digest is valid, the *claims* are not
# ----------------------------------------------------------------------


def test_replay_rejects_dropped_chain_step(fixpoint_artifact):
    payload = copy.deepcopy(fixpoint_artifact.payload)
    chain = payload["chain"]
    assert len(chain) >= 3, "need a middle link to drop"
    del chain[len(chain) // 2]
    expect_rejection(
        reissue(fixpoint_artifact, payload), "chain step dropped or edited"
    )


def test_replay_rejects_duplicated_chain_step(fixpoint_artifact):
    payload = copy.deepcopy(fixpoint_artifact.payload)
    payload["chain"].insert(1, payload["chain"][1])
    expect_rejection(reissue(fixpoint_artifact, payload))


def test_replay_rejects_edited_chain_endpoint(fixpoint_artifact):
    payload = copy.deepcopy(fixpoint_artifact.payload)
    last = payload["chain"][-1]
    size = last["size"]
    mask = int.from_bytes(bytes.fromhex(last["bits"]), "little")
    forged = (mask ^ 1) & ((1 << size) - 1)
    last["bits"] = forged.to_bytes((size + 7) // 8, "little").hex()
    expect_rejection(reissue(fixpoint_artifact, payload))


def test_replay_rejects_edited_witness_state(fig1_artifact):
    payload = copy.deepcopy(fig1_artifact.payload)
    escapes = [
        r for r in payload["refutations"] if r["witness"] == "escape"
    ]
    assert escapes, "Figure 1 refutations must include escape paths"
    states = escapes[0]["path"]["states"]
    # Point the final witness state somewhere else in the space.
    states[-1] = (states[-1] + 1) % payload["init"]["size"]
    expect_rejection(reissue(fig1_artifact, payload))


def test_replay_rejects_swapped_init(fig1_artifact):
    payload = copy.deepcopy(fig1_artifact.payload)
    size = payload["init"]["size"]
    full = (1 << size) - 1
    weaker = full.to_bytes((size + 7) // 8, "little").hex()
    payload["init"]["bits"] = weaker
    payload["program"]["init"]["bits"] = weaker
    expect_rejection(reissue(fig1_artifact, payload), "init")


def test_replay_rejects_truncated_refutation_table(fig1_artifact):
    payload = copy.deepcopy(fig1_artifact.payload)
    assert payload["refutations"], "Figure 1 must carry refutations"
    payload["refutations"].pop()
    expect_rejection(reissue(fig1_artifact, payload))


def test_replay_rejects_forged_fingerprint(fig1_artifact):
    payload = copy.deepcopy(fig1_artifact.payload)
    size = payload["init"]["size"]
    # Set bits beyond the space size: from_fingerprint must refuse this.
    payload["init"]["bits"] = (1 << size).to_bytes(
        (size + 8) // 8, "little"
    ).hex()
    expect_rejection(reissue(fig1_artifact, payload))


def test_replay_rejects_non_hex_fingerprint(fig1_artifact):
    payload = copy.deepcopy(fig1_artifact.payload)
    payload["init"]["bits"] = "zz"
    expect_rejection(reissue(fig1_artifact, payload), "not hex")


def test_replay_rejects_forged_no_solution_claim(fig1_artifact):
    """Move a refuted candidate into the solutions list: the resolution and
    chain checks must expose it as a non-solution."""
    payload = copy.deepcopy(fig1_artifact.payload)
    refutation = payload["refutations"].pop()
    payload["solutions"].append(
        {
            "candidate": refutation["candidate"],
            "resolution": refutation["resolution"],
            "chain": [payload["init"], refutation["candidate"]],
        }
    )
    expect_rejection(reissue(fig1_artifact, payload))


def test_replay_rejects_edited_trap(refutation_artifact):
    payload = copy.deepcopy(refutation_artifact.payload)
    assert any(
        e["kind"] == "leads-to-refutation" for e in payload["liveness"]
    ), "lossy channel must refute a liveness obligation"

    # Drop one state from the first trap we can find.
    def prune_trap(obj):
        if isinstance(obj, dict):
            if "trap" in obj and isinstance(obj["trap"], list) and obj["trap"]:
                obj["trap"] = obj["trap"][:-1]
                return True
            return any(prune_trap(v) for v in obj.values())
        if isinstance(obj, list):
            return any(prune_trap(v) for v in obj)
        return False

    assert prune_trap(payload)
    expect_rejection(reissue(refutation_artifact, payload))


def test_replay_rejects_wrong_model_key(fig1_artifact):
    mismatched = Artifact(
        kind=fig1_artifact.kind, model="fig2", payload=fig1_artifact.payload
    )
    expect_rejection(mismatched)


def test_replay_rejects_unregistered_model(fig1_artifact):
    unknown = Artifact(
        kind=fig1_artifact.kind, model="no-such-model", payload=fig1_artifact.payload
    )
    expect_rejection(unknown)


# ----------------------------------------------------------------------
# semantic tier on a batched kbp-solve: the replayer checks refutations
# against the resolved view of P_x, never against the solver's evidence
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def kbp24_artifact():
    """kbp24-f4's certified ``si-solve``, swept by the batched kernel."""
    from repro.certificates import build_model
    from repro.core import solve_si

    report = solve_si(build_model("kbp24-f4").program, emit_certificate=True)
    certificate = report.certificate
    return Artifact(
        kind=certificate.kind, model="kbp24-f4", payload=certificate.to_payload()
    )


def _resolved_program(refutation):
    """``P_x`` for a refutation payload's candidate, from the solver."""
    from repro.certificates import build_model
    from repro.certificates.canonical import decode_predicate
    from repro.core.kbp import resolve_at

    program = build_model("kbp24-f4").program
    candidate = decode_predicate(refutation["candidate"], program.space)
    return program, resolve_at(program, candidate)


def test_replay_rejects_escape_step_under_a_false_guard(kbp24_artifact):
    """Relabel one step with a statement whose guard is false there under
    the candidate's resolution: that statement leaves the state alone."""
    payload = copy.deepcopy(kbp24_artifact.payload)
    for refutation in payload["refutations"]:
        if refutation["witness"] != "escape":
            continue
        _, resolved = _resolved_program(refutation)
        states = refutation["path"]["states"]
        labels = refutation["path"]["statements"]
        for step, label in enumerate(labels):
            for stmt in resolved.statements:
                if stmt.name != label and not resolved.enabled(stmt).holds_at(
                    states[step]
                ):
                    labels[step] = stmt.name
                    expect_rejection(
                        reissue(kbp24_artifact, payload), "does not map state"
                    )
                    return
    pytest.fail("no escape step has a statement disabled at its source")


def test_replay_rejects_unclosed_unreached_witness(kbp24_artifact):
    """Drop a closed-set state that a knowledge-guarded statement reaches
    from inside the set; init stays inside and ``missing`` outside."""
    from repro.certificates.canonical import decode_predicate, encode_predicate
    from repro.predicates import Predicate

    payload = copy.deepcopy(kbp24_artifact.payload)
    for refutation in payload["refutations"]:
        if refutation["witness"] != "unreached":
            continue
        program, resolved = _resolved_program(refutation)
        closed = decode_predicate(refutation["closed"], program.space)
        for stmt in resolved.statements:
            assert program.statement(stmt.name).is_knowledge_based()
            array = resolved.successor_array(stmt)
            for source in closed.indices():
                target = array[source]
                if target == source or program.init.holds_at(target):
                    continue
                refutation["closed"] = encode_predicate(
                    Predicate(program.space, closed.mask & ~(1 << target))
                )
                assert target != refutation["missing"]
                expect_rejection(
                    reissue(kbp24_artifact, payload), "not closed"
                )
                return
    pytest.fail("no unreached witness has a droppable reached state")


def test_replay_rejects_flipped_resolution_bit(kbp24_artifact):
    payload = copy.deepcopy(kbp24_artifact.payload)
    entry = payload["refutations"][0]["resolution"][0][1]
    bits = bytearray.fromhex(entry["bits"])
    bits[0] ^= 1
    entry["bits"] = bits.hex()
    expect_rejection(reissue(kbp24_artifact, payload), "eq. \\(13\\)")


def test_replay_resolves_programs_only_for_solutions(
    kbp24_artifact, monkeypatch
):
    """Refutations replay on the resolved view; only solutions build
    ``P_x``, whose programs the Figure-2 checks read."""
    from repro.unity import Program

    built = []
    real_resolve = Program.resolve

    def resolve_spy(self, resolution):
        built.append(self.name)
        return real_resolve(self, resolution)

    monkeypatch.setattr(Program, "resolve", resolve_spy)
    outcome = replay_artifact(kbp24_artifact)
    assert outcome.verdict == "well-posed"
    assert len(built) == len(kbp24_artifact.payload["solutions"]) >= 1


# ----------------------------------------------------------------------
# truncation tier: a partial file is neither valid nor "tampered" — it
# gets its own diagnosis and its own exit code
# ----------------------------------------------------------------------


def _truncate(path, fraction=0.6):
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])


def test_load_rejects_midfile_truncation(fig1_artifact, tmp_path):
    from repro.certificates import TruncatedArtifactError
    from repro.certificates.store import load, save

    path = save(fig1_artifact, tmp_path / "fig1.cert.json")
    _truncate(path)
    with pytest.raises(TruncatedArtifactError, match="truncated"):
        load(path)


def test_cli_reports_truncation_with_distinct_exit_code(
    fig1_artifact, tmp_path, capsys
):
    from repro.certificates.replay import EXIT_TRUNCATED, main
    from repro.certificates.store import save

    path = save(fig1_artifact, tmp_path / "fig1.cert.json")
    _truncate(path)
    assert main([str(tmp_path)]) == EXIT_TRUNCATED == 3
    out = capsys.readouterr().out
    assert "TRUNCATED fig1.cert.json" in out
    assert "REJECTED" in out


def test_cli_corrupt_but_complete_artifact_is_a_plain_failure(
    fig1_artifact, tmp_path, capsys
):
    """A digest mismatch on a *complete* file must stay exit code 1 —
    truncation's re-emit remedy does not apply."""
    from repro.certificates.replay import main
    from repro.certificates.store import save

    path = save(fig1_artifact, tmp_path / "fig1.cert.json")
    doc = json.loads(path.read_text())
    doc["digest"] = "sha256:" + "0" * 64
    path.write_text(json.dumps(doc))
    assert main([str(tmp_path)]) == 1
    assert "FAIL fig1.cert.json" in capsys.readouterr().out
