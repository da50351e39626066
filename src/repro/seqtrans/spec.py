"""The sequence transmission specification (paper eqs. 34–35, 39).

Safety:    ``invariant w ⊑ x``                      (34)
Liveness:  ``|w| = k ↦ |w| > k`` for every ``k``    (35)

By invariant (36) (``|w| = j``) the liveness property is equivalent to
``j = k ↦ j > k`` (39).  In the bounded model liveness is required for
``k < L`` (there is no element past the end to deliver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..predicates import Predicate
from ..proofs import refute_leads_to
from ..statespace import StateSpace
from ..transformers import strongest_invariant
from ..unity import IsPrefix, Length, Program, var
from ..unity.support import expr_predicate
from .params import SeqTransParams

#: Obligation labels shared by spec certificates and the replayer's model
#: registry — defined once here so the two can never drift apart.
SAFETY_LABEL = "w-prefix-of-x (34)"


def liveness_label(k: int) -> str:
    """The (35) obligation label for stream position ``k``."""
    return f"|w|={k} ↦ |w|>{k} (35)"


def safety_predicate(space: StateSpace) -> Predicate:
    """``w ⊑ x`` — the delivered sequence is a prefix of the sent one."""
    return expr_predicate(space, IsPrefix(var("w"), var("x")))


def w_length_eq(space: StateSpace, k: int) -> Predicate:
    """``|w| = k``."""
    return expr_predicate(space, Length(var("w")).eq(k))


def w_length_gt(space: StateSpace, k: int) -> Predicate:
    """``|w| > k``."""
    return expr_predicate(space, Length(var("w")) > k)


def j_eq(space: StateSpace, k: int) -> Predicate:
    """``j = k``."""
    return Predicate.from_callable(space, lambda state: state["j"] == k)


def j_gt(space: StateSpace, k: int) -> Predicate:
    """``j > k``."""
    return Predicate.from_callable(space, lambda state: state["j"] > k)


def delivered_all(space: StateSpace, params: SeqTransParams) -> Predicate:
    """``w = x`` — full delivery."""
    return Predicate.from_callable(
        space, lambda state: tuple(state["w"]) == tuple(state["x"])
    )


@dataclass(frozen=True)
class SpecReport:
    """Verdict of checking (34) and (35) on a protocol instance.

    With ``check_spec(..., emit_certificate=True)``, ``certificate`` is a
    :class:`repro.certificates.certs.SpecCertificate` carrying the SI chain
    and per-obligation evidence (ranking stages, lassos, counterexample
    paths) behind every boolean in this report.
    """

    safety_holds: bool
    liveness_holds: Tuple[bool, ...]  # one verdict per k < L
    si_states: int
    certificate: Optional[object] = None

    @property
    def liveness_all(self) -> bool:
        return all(self.liveness_holds)

    @property
    def satisfied(self) -> bool:
        return self.safety_holds and self.liveness_all


def check_spec(
    program: Program,
    params: SeqTransParams,
    si: Optional[Predicate] = None,
    emit_certificate: bool = False,
) -> SpecReport:
    """Model-check the full specification of a (standard) protocol instance.

    Safety via ``[SI ⇒ (w ⊑ x)]`` (eq. 5); liveness via the fair
    leads-to checker for each ``k < L`` (eq. 39's form).  With
    ``emit_certificate=True`` each verdict is backed by replayable
    evidence; a supplied ``si`` is then cross-checked against the sst
    chain rather than trusted.
    """
    space = program.space
    chain: Tuple[Predicate, ...] = ()
    if emit_certificate:
        from ..transformers import sst

        result = sst(program, program.init)
        if si is not None and not result.predicate == si:
            raise ValueError(
                "supplied si is not this program's strongest invariant; "
                "refusing to certify against it"
            )
        si = result.predicate
        chain = result.chain
    elif si is None:
        si = strongest_invariant(program)
    safety_pred = safety_predicate(space)
    safety = si.entails(safety_pred)
    liveness: List[bool] = []
    liveness_certs: List[object] = []
    for k in range(params.length):
        p_k = w_length_eq(space, k)
        q_k = w_length_gt(space, k)
        refutation = refute_leads_to(
            program, p_k, q_k, si, emit_witness=emit_certificate
        )
        liveness.append(refutation is None)
        if emit_certificate:
            liveness_certs.append(
                _liveness_evidence(program, p_k, q_k, si, refutation, k)
            )
    certificate = None
    if emit_certificate:
        certificate = _spec_certificate(
            program, chain, safety_pred, safety, tuple(liveness_certs)
        )
    return SpecReport(
        safety_holds=safety,
        liveness_holds=tuple(liveness),
        si_states=si.count(),
        certificate=certificate,
    )


def _liveness_evidence(program, p_k, q_k, si, refutation, k):
    """One (35) obligation's evidence: ranking stages or a concrete lasso."""
    from ..certificates.canonical import program_digest
    from ..certificates.certs import (
        LeadsToCertificate,
        LeadsToRefutationCertificate,
    )
    from ..proofs.modelcheck import wlt_stages

    digest = program_digest(program)
    if refutation is None:
        report = wlt_stages(program, q_k, si)
        if not p_k.entails(report.value):  # pragma: no cover — cross-check
            raise AssertionError(
                f"wlt disagrees with the refuter on obligation k={k}"
            )
        return LeadsToCertificate(
            program=digest,
            p=p_k,
            q=q_k,
            reach=si,
            stages=report.stages,
            label=liveness_label(k),
        )
    return LeadsToRefutationCertificate(
        program=digest,
        p=p_k,
        q=q_k,
        prefix_states=refutation.prefix_states,
        prefix_statements=refutation.prefix_statements,
        approach_states=refutation.approach_states,
        approach_statements=refutation.approach_statements,
        trap=refutation.trap,
        label=liveness_label(k),
    )


def _spec_certificate(program, chain, safety_pred, safety_holds, liveness_certs):
    from ..certificates.canonical import program_digest
    from ..certificates.certs import SafetyRefutationCertificate, SpecCertificate
    from ..proofs.modelcheck import labeled_path

    digest = program_digest(program)
    if safety_holds:
        safety_entries = ((SAFETY_LABEL, safety_pred),)
        safety_refutations = ()
    else:
        path = labeled_path(
            program, program.init.mask, (~safety_pred).mask
        )
        assert path is not None  # SI ⊄ safety ⇒ a violating state is reachable
        safety_entries = ()
        safety_refutations = (
            SafetyRefutationCertificate(
                program=digest,
                predicate=safety_pred,
                path_states=path[0],
                path_statements=path[1],
                label=SAFETY_LABEL,
            ),
        )
    return SpecCertificate(
        program=digest,
        si_chain=chain,
        safety=safety_entries,
        safety_refutations=safety_refutations,
        liveness=liveness_certs,
    )
