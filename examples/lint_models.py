"""Static analysis of the model zoo (`repro.lint`).

Lints every curated model with the structural rules RBM001-RBM009,
shows what the linter catches on a deliberately broken model, and runs
the kernel vectorization self-lint (KRN001-KRN005) over the shipped
batch solvers.
"""

from repro import ReactionBasedModel
from repro.errors import LintError
from repro.lint import lint_gate, lint_kernels, lint_model
from repro.models import (brusselator, decay_chain, dimerization,
                          goldbeter_mitotic, lotka_volterra, robertson,
                          schloegl)


def lint_the_zoo():
    print("=== model zoo ===")
    factories = (brusselator, lambda: decay_chain(4), dimerization,
                 goldbeter_mitotic, lotka_volterra, robertson, schloegl)
    for factory in factories:
        report = lint_model(factory())
        risk = report.metadata["stiffness_risk_decades"]
        print(f"{report.subject:28s} {len(report)} finding(s), "
              f"stiffness risk {risk:4.1f} decades")
        for finding in report.findings:
            print(f"    {finding.render()}")


def lint_a_broken_model():
    print("\n=== a deliberately broken model ===")
    model = ReactionBasedModel("broken-demo")
    model.add_species("A", 1.0)
    model.add_species("B", 0.0)
    model.add_species("X", 0.0)       # consumed but never produced
    model.add_species("Ghost", 2.0)   # referenced by nothing
    model.add("A -> B @ 1.0")
    model.add("A -> B @ 2.0")         # duplicate: fluxes silently sum
    model.add("X -> B @ 5.0")         # can never fire
    print(lint_model(model).render_text())

    # lint_gate is what run_psa_1d(..., lint=True) calls internally.
    try:
        lint_gate(model)
    except LintError as error:
        print(f"\nlint_gate refuses the sweep:\n  {error}")


def self_lint_kernels():
    print("\n=== kernel self-lint (gpu/batch_*.py) ===")
    print(lint_kernels().render_text())


if __name__ == "__main__":
    lint_the_zoo()
    lint_a_broken_model()
    self_lint_kernels()
