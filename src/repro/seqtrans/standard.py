"""The standard sequence transmission protocol (paper Figure 4, bounded).

The Sender repeatedly transmits ``(i, x_i)`` until it receives the ack
``z = i+1``, then advances; the Receiver delivers ``x_j`` when it holds the
message ``(j, α)`` and otherwise transmits the request ``j``.  These guards
are exactly the proposed values (50)/(51) for the knowledge predicates
``K_R(x_k = α)`` and ``K_S K_R x_k`` of the knowledge-based protocol
(Figure 3):

* (50)  ``K_R(x_k = α)``:  ``(j = k ∧ z' = (k,α)) ∨ (j > k ∧ w_k = α)``
* (51)  ``K_S K_R x_k``:   ``(i = k ∧ z = k+1) ∨ i > k``

Deviations from the figure, documented in DESIGN.md §2:

* the buffer ``y`` is dropped — the paper gives the Sender access to ``x``
  anyway (``Sender = {x, y, i, z}``) and maintains ``y = x_i``, so ``y`` is
  redundant for both execution and knowledge;
* the history variables ``ch_S``/``ch_R`` are not state — the channel
  construction makes (St-1)/(St-2) true by construction (see
  :mod:`repro.seqtrans.channels`);
* everything is bounded by the transmission length ``L``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..predicates import Predicate
from ..statespace import (
    BOT,
    EnumDomain,
    IntRangeDomain,
    OptionDomain,
    SeqDomain,
    StateSpace,
    TupleDomain,
    Variable,
)
from ..unity import Length, Program, Statement, const, land, lnot, lor, tup, var
from ..unity.support import expr_predicate
from .channels import ChannelSpec, bounded_loss
from .crash import CrashSpec
from .params import SeqTransParams

SENDER = "Sender"
RECEIVER = "Receiver"


def channel_domains(params: SeqTransParams) -> Tuple[TupleDomain, IntRangeDomain]:
    """The (data-message, ack) domains the Figure-3/4 channels carry."""
    alpha_domain = EnumDomain("A", params.alphabet)
    index_domain = IntRangeDomain(0, params.length - 1)
    counter_domain = IntRangeDomain(0, params.length)
    return TupleDomain(index_domain, alpha_domain), counter_domain


def build_space(
    params: SeqTransParams,
    channel: ChannelSpec,
    crash: Optional[CrashSpec] = None,
) -> StateSpace:
    """The state space shared by the standard and knowledge-based protocols."""
    alpha_domain = EnumDomain("A", params.alphabet)
    length = params.length
    x_domain = TupleDomain(*([alpha_domain] * length))
    index_domain = IntRangeDomain(0, length - 1)
    message_domain, counter_domain = channel_domains(params)
    variables = [
        Variable("x", x_domain),
        Variable("i", index_domain),
        Variable("z", OptionDomain(counter_domain)),
        Variable("w", SeqDomain(alpha_domain, length)),
        Variable("j", counter_domain),
        Variable("zp", OptionDomain(message_domain)),
    ]
    variables.extend(channel.slot_variables(message_domain, counter_domain))
    if crash is not None:
        variables.extend(crash.crash_variables())
    return StateSpace(variables)


def initial_predicate(
    params: SeqTransParams,
    channel: ChannelSpec,
    space: StateSpace,
    crash: Optional[CrashSpec] = None,
) -> Predicate:
    """``init``: counters at zero, buffers empty, ``x`` free modulo a priori info.

    With ``apriori=None`` every value of ``x`` is initially possible — the
    "no a priori information" assumption under which Figure 4 instantiates
    the knowledge-based protocol (§6.3).
    """
    channel_init = dict(channel.initial_assignment())
    if crash is not None:
        channel_init.update(crash.initial_assignment())
    fixed = params.apriori or {}
    # ``BOT`` is a singleton with identity equality, so ``z = ⊥`` is ``z is ⊥``.
    conjuncts = [
        var("i").eq(0),
        var("j").eq(0),
        var("z").eq(BOT),
        var("zp").eq(BOT),
        var("w").eq(()),
    ]
    conjuncts += [var(name).eq(value) for name, value in channel_init.items()]
    conjuncts += [var("x")[k].eq(v) for k, v in fixed.items()]
    return expr_predicate(space, land(*conjuncts))


def sender_statements(params: SeqTransParams, channel: ChannelSpec) -> List[Statement]:
    """The Sender's statements (transmit-current / advance)."""
    receive = channel.receive_ack_updates()
    length = params.length
    transmit_updates: Dict[str, Any] = dict(
        channel.transmit_data_updates(tup(var("i"), var("x")[var("i")]))
    )
    transmit_updates.update(receive)
    statements = [
        Statement(
            name="snd_data",
            targets=tuple(transmit_updates),
            exprs=tuple(transmit_updates.values()),
            guard=lnot(var("z").eq(var("i") + const(1))),
        )
    ]
    advance_updates: Dict[str, Any] = {"i": var("i") + const(1)}
    advance_updates.update(receive)
    statements.append(
        Statement(
            name="snd_next",
            targets=tuple(advance_updates),
            exprs=tuple(advance_updates.values()),
            guard=(var("z").eq(var("i") + const(1))) & (var("i") < const(length - 1)),
        )
    )
    return statements


def receiver_statements(
    params: SeqTransParams, channel: ChannelSpec
) -> List[Statement]:
    """The Receiver's statements (deliver-per-symbol family / request)."""
    receive = channel.receive_data_updates()
    length = params.length
    statements: List[Statement] = []
    from ..unity import Append

    for alpha in params.alphabet:
        deliver_updates: Dict[str, Any] = {
            "w": Append(var("w"), const(alpha)),
            "j": var("j") + const(1),
        }
        deliver_updates.update(receive)
        statements.append(
            Statement(
                name=f"rcv_deliver_{alpha}",
                targets=tuple(deliver_updates),
                exprs=tuple(deliver_updates.values()),
                # The |w| < L conjunct keeps the assignment total on the
                # *unreachable* part of the space (on SI it is implied by
                # j < L together with invariant (36), |w| = j).
                guard=(var("j") < const(length))
                & (Length(var("w")) < const(length))
                & (var("zp").eq(tup(var("j"), const(alpha)))),
            )
        )
    has_current = lor(
        *[var("zp").eq(tup(var("j"), const(alpha))) for alpha in params.alphabet]
    )
    ack_updates: Dict[str, Any] = dict(channel.transmit_ack_updates(var("j")))
    ack_updates.update(receive)
    statements.append(
        Statement(
            name="rcv_ack",
            targets=tuple(ack_updates),
            exprs=tuple(ack_updates.values()),
            guard=lnot(has_current),
        )
    )
    return statements


def build_standard_protocol(
    params: SeqTransParams = SeqTransParams(),
    channel: ChannelSpec = bounded_loss(1),
    crash: Optional[CrashSpec] = None,
) -> Program:
    """The bounded Figure-4 protocol over the given channel.

    With a :class:`~repro.seqtrans.crash.CrashSpec`, the named processes
    additionally get budgeted crash/restart statements (local variables
    reset, channel slots persist).
    """
    space = build_space(params, channel, crash=crash)
    message_domain, counter_domain = channel_domains(params)
    statements = (
        sender_statements(params, channel)
        + receiver_statements(params, channel)
        + channel.environment_statements(message_domain, counter_domain)
    )
    tag = f"L={params.length},|A|={len(params.alphabet)},{channel.kind.value}"
    if crash is not None and crash.budget > 0:
        statements = statements + crash.crash_statements()
        tag += f",{crash.label}"
    return Program(
        space=space,
        init=initial_predicate(params, channel, space, crash=crash),
        statements=statements,
        processes={
            SENDER: ("x", "i", "z"),
            RECEIVER: ("w", "j", "zp"),
        },
        name=f"seqtrans-standard[{tag}]",
    )


# ----------------------------------------------------------------------
# the proposed knowledge predicates (50) and (51)
# ----------------------------------------------------------------------


def proposed_k_r_value(space: StateSpace, k: int, alpha: Any) -> Predicate:
    """Eq. (50): the proposed value of ``K_R(x_k = α)``."""
    cache = getattr(space, "_seqtrans_proposed_cache", None)
    if cache is None:
        cache = {}
        space._seqtrans_proposed_cache = cache
    key = ("k_r_value", k, alpha)
    if key in cache:
        return cache[key]

    def holds(state) -> bool:
        j = state["j"]
        if j == k and state["zp"] == (k, alpha):
            return True
        w = state["w"]
        return j > k and len(w) > k and w[k] == alpha

    cache[key] = Predicate.from_callable(space, holds)
    return cache[key]


def proposed_k_r_any(space: StateSpace, params: SeqTransParams, k: int) -> Predicate:
    """``K_R x_k ≡ (∃α ∈ A : K_R(x_k = α))`` via the proposed values."""
    out = Predicate.false(space)
    for alpha in params.alphabet:
        out = out | proposed_k_r_value(space, k, alpha)
    return out


def proposed_k_s_k_r(space: StateSpace, k: int) -> Predicate:
    """Eq. (51): the proposed value of ``K_S K_R x_k``."""
    cache = getattr(space, "_seqtrans_proposed_cache", None)
    if cache is None:
        cache = {}
        space._seqtrans_proposed_cache = cache
    key = ("k_s_k_r", k)
    if key in cache:
        return cache[key]

    def holds(state) -> bool:
        i = state["i"]
        return (i == k and state["z"] == k + 1) or i > k

    cache[key] = Predicate.from_callable(space, holds)
    return cache[key]


def fact_x_k(space: StateSpace, k: int, alpha: Any) -> Predicate:
    """The ground fact ``x_k = α``."""
    return Predicate.from_callable(space, lambda state: state["x"][k] == alpha)
