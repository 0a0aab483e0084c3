"""Static model analysis: structural lint rules over an RBM (RBM0xx).

Every rule operates on a :class:`~repro.model.rbm.ReactionBasedModel`
(optionally specialized by a
:class:`~repro.model.parameterization.Parameterization`) *without
integrating anything*: the stoichiometric graph, the null space of S
and the rate-constant magnitudes are enough to catch the structural
defects that otherwise surface as silently wrong sweep results.
"""

from __future__ import annotations

import numpy as np

from ..model import Parameterization, ReactionBasedModel
from .report import LintReport

#: Rule registry: rule ID -> (default severity, one-line description).
MODEL_RULES = {
    "RBM001": ("warning", "dead species: referenced by no reaction"),
    "RBM002": ("warning", "unproducible species: starts empty and no "
                          "fireable reaction ever produces it"),
    "RBM003": ("info", "unbounded accumulation: species is produced but "
                       "never consumed and not conserved"),
    "RBM004": ("warning", "disconnected reaction network: structurally "
                          "independent sub-models"),
    "RBM005": ("warning", "duplicate reaction: same reactants, products "
                          "and kinetic law"),
    "RBM006": ("error", "zero-flux reaction: can never fire from the "
                        "initial state"),
    "RBM007": ("warning", "degenerate rate constant: effectively zero "
                          "next to the fastest reaction"),
    "RBM008": ("warning", "conserved pool with zero initial total: its "
                          "species are frozen at zero"),
    "RBM009": ("info", "stiffness risk: rate constants span many orders "
                       "of magnitude"),
}

#: Decades of rate-constant spread above which RBM009 fires.
STIFFNESS_RISK_DECADES = 4.0

#: Relative magnitude below which a rate constant is numerically
#: invisible next to the fastest reaction's flux (double precision
#: holds ~15-16 significant digits).
_DEGENERATE_RATIO = 1e-12

_TOL = 1e-10


def stiffness_risk_score(rate_constants: np.ndarray) -> float:
    """Decades spanned by the positive rate constants.

    ``log10(k_max / k_min)`` over the finite, strictly positive entries
    of ``rate_constants`` (any shape). A purely static proxy for the
    spread of dynamical timescales: 0 means all reactions run at one
    speed, ~9 is Robertson territory.
    """
    k = np.asarray(rate_constants, dtype=np.float64).ravel()
    k = k[np.isfinite(k) & (k > 0.0)]
    if k.size < 2:
        return 0.0
    return float(np.log10(k.max() / k.min()))


def _law_species(reaction) -> set[str]:
    """Species a kinetic law reads beyond the stoichiometric reactants
    (custom-law modifiers such as an enzyme concentration)."""
    names = getattr(reaction.law, "species_names", None)
    if names is None:
        return set()
    return set(names())


def _reachable_closure(model: ReactionBasedModel,
                       initial_state: np.ndarray
                       ) -> tuple[set[str], list[bool]]:
    """Fixpoint of 'which species can ever hold mass'.

    A species is available when its initial concentration is positive
    or some fireable reaction net-produces it; a reaction is fireable
    when all its stoichiometric reactants are available (zero-order
    inflows always fire). Kinetic-law modifiers are deliberately not
    required: a zero modifier gives zero flux but does not make the
    reaction structurally dead.
    """
    names = model.species.names
    available = {name for name, x0 in zip(names, initial_state) if x0 > 0.0}
    fireable = [False] * model.n_reactions
    changed = True
    while changed:
        changed = False
        for i, reaction in enumerate(model.reactions):
            if fireable[i]:
                continue
            if all(name in available for name in reaction.reactants):
                fireable[i] = True
                changed = True
                for name in reaction.products:
                    if reaction.net_change(name) > 0:
                        available.add(name)
    return available, fireable


def _connected_components(model: ReactionBasedModel) -> list[set[str]]:
    """Connected components of the species co-occurrence graph.

    Two species are connected when one reaction touches both, either
    stoichiometrically or through a kinetic-law modifier. Species that
    no reaction references at all are excluded (rule RBM001 covers
    them).
    """
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for reaction in model.reactions:
        participants = (reaction.species_names() | _law_species(reaction)) \
            & set(model.species.names)
        participants = sorted(participants)
        for name in participants:
            parent.setdefault(name, name)
        for name in participants[1:]:
            union(participants[0], name)

    components: dict[str, set[str]] = {}
    for name in parent:
        components.setdefault(find(name), set()).add(name)
    return sorted(components.values(), key=lambda c: sorted(c)[0])


def _nonnegative_laws(laws: np.ndarray) -> np.ndarray:
    """Sign-canonicalized conservation laws that describe a pool.

    Each law is flipped so its largest-magnitude entry is positive;
    only laws that are then (numerically) non-negative everywhere are
    returned — those are the moiety pools whose total can meaningfully
    be 'empty'. Sign-indefinite combinations of a multi-dimensional
    null space are skipped (a linter heuristic, documented as such).
    """
    pools = []
    for law in laws:
        peak = law[np.argmax(np.abs(law))]
        if peak < 0:
            law = -law
        if np.all(law >= -_TOL):
            pools.append(law)
    return np.array(pools) if pools else np.zeros((0, laws.shape[1]))


def lint_model(model: ReactionBasedModel,
               parameterization: Parameterization | None = None
               ) -> LintReport:
    """Run every RBM0xx rule and return the collected findings.

    ``parameterization`` overrides the model's nominal rate constants
    and initial state, so a sweep's specific corner can be linted
    without mutating the model.
    """
    model.validate()
    if parameterization is not None:
        model.check_parameterization(parameterization)
        constants = parameterization.rate_constants
        initial = parameterization.initial_state
    else:
        constants = model.rate_constants()
        initial = model.initial_state()

    report = LintReport(subject=f"model {model.name!r}")
    names = model.species.names

    # RBM001 — dead species.
    referenced: set[str] = set()
    for reaction in model.reactions:
        referenced |= reaction.species_names() | _law_species(reaction)
    for name in names:
        if name not in referenced:
            report.add("RBM001", MODEL_RULES["RBM001"][0],
                       f"species {name!r} is referenced by no reaction; "
                       "its ODE is identically dX/dt = 0",
                       f"{model.name}:species[{name}]",
                       "drop it or wire it into the network")

    # RBM002 / RBM006 — reachability closure from the initial state.
    available, fireable = _reachable_closure(model, initial)
    for name, x0 in zip(names, initial):
        needed = any(name in r.reactants for r in model.reactions)
        if x0 <= 0.0 and name not in available and needed:
            report.add("RBM002", MODEL_RULES["RBM002"][0],
                       f"species {name!r} starts at zero and no fireable "
                       "reaction ever produces it, yet reactions consume "
                       "it", f"{model.name}:species[{name}]",
                       "give it mass at t=0 or add a producing reaction")
    for i, (reaction, fires) in enumerate(zip(model.reactions, fireable)):
        if not fires:
            report.add("RBM006", MODEL_RULES["RBM006"][0],
                       f"reaction {reaction.text()!r} can never fire: some "
                       "reactant is empty at t=0 and never produced",
                       f"{model.name}:reaction[{i}]",
                       "its rate constant is unused — sweeping it is "
                       "meaningless")

    # Conservation laws (needed by RBM003 and RBM008).
    laws = model.conservation_law_basis()
    conserved_support = set()
    for law in laws:
        for index in np.flatnonzero(np.abs(law) > _TOL):
            conserved_support.add(names[index])

    # RBM003 — unbounded accumulation.
    for name in names:
        produced = any(r.net_change(name) > 0 for r in model.reactions)
        consumed = any(r.net_change(name) < 0 for r in model.reactions)
        if produced and not consumed and name not in conserved_support:
            report.add("RBM003", MODEL_RULES["RBM003"][0],
                       f"species {name!r} is net-produced but never "
                       "consumed and lies in no conservation law; it "
                       "grows without bound",
                       f"{model.name}:species[{name}]",
                       "add a drain reaction if accumulation is not "
                       "intended")

    # RBM004 — disconnected components.
    components = _connected_components(model)
    if len(components) > 1:
        rendered = "; ".join(
            "{" + ", ".join(sorted(c)) + "}" for c in components)
        report.add("RBM004", MODEL_RULES["RBM004"][0],
                   f"the reaction network splits into {len(components)} "
                   f"independent components: {rendered}",
                   f"{model.name}:network",
                   "independent sub-models are cheaper to analyze "
                   "separately — or a coupling reaction is missing")

    # RBM005 — duplicate / shadowed reactions.
    groups: dict[tuple, list[int]] = {}
    for i, reaction in enumerate(model.reactions):
        key = (frozenset(reaction.reactants.items()),
               frozenset(reaction.products.items()),
               reaction.law.describe())
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        if len(indices) > 1:
            first = model.reactions[indices[0]]
            rates = ", ".join(f"{model.reactions[i].rate_constant:g}"
                              for i in indices)
            report.add("RBM005", MODEL_RULES["RBM005"][0],
                       f"reactions {indices} are copies of "
                       f"{first.text()!r} (rates {rates}); their fluxes "
                       "silently sum",
                       f"{model.name}:reaction{indices}",
                       "merge them into one reaction with the combined "
                       "rate")

    # RBM007 — degenerate rate constants.
    finite = constants[np.isfinite(constants) & (constants > 0.0)]
    k_max = float(finite.max()) if finite.size else 0.0
    for i, k in enumerate(constants):
        if not np.isfinite(k):
            report.add("RBM007", MODEL_RULES["RBM007"][0],
                       f"rate constant k[{i}] = {k} is not finite",
                       f"{model.name}:reaction[{i}]")
        elif k_max > 0.0 and k < k_max * _DEGENERATE_RATIO:
            report.add("RBM007", MODEL_RULES["RBM007"][0],
                       f"rate constant k[{i}] = {k:g} is more than 12 "
                       "orders of magnitude below the fastest reaction "
                       f"({k_max:g}); its flux is lost to double-"
                       "precision rounding in the aggregate derivative",
                       f"{model.name}:reaction[{i}]",
                       "rescale the model or drop the reaction")

    # RBM008 — empty conserved pools.
    for law in _nonnegative_laws(laws):
        total = float(law @ initial)
        if abs(total) <= _TOL:
            members = ", ".join(names[j] for j in
                                np.flatnonzero(np.abs(law) > _TOL))
            report.add("RBM008", MODEL_RULES["RBM008"][0],
                       f"the conserved pool {{{members}}} has zero total "
                       "at t=0, so every member stays at zero forever",
                       f"{model.name}:conservation",
                       "seed the pool or remove its species")

    # RBM009 — static stiffness risk.
    risk = stiffness_risk_score(constants)
    report.metadata["stiffness_risk_decades"] = risk
    if risk >= STIFFNESS_RISK_DECADES:
        report.add("RBM009", MODEL_RULES["RBM009"][0],
                   f"rate constants span {risk:.1f} orders of magnitude; "
                   "expect stiffness — the explicit solver will crawl or "
                   "abort", f"{model.name}:rates",
                   "use the 'auto'/router method so stiff simulations "
                   "land on Radau IIA")
    return report
