"""Compiled ODE systems derived from reaction-based models.

Under mass-action kinetics the dynamics of an RBM are

    dX/dt = (B - A)^T [ K o X^A ]

where A, B are the stoichiometric matrices, K the kinetic constants, o
the Hadamard product and X^A the vector of reaction monomials. This
module compiles an RBM into index structures that evaluate the flux
vector, the right-hand side and the analytic Jacobian in vectorized form
over a *batch* of simulations — the coarse-grained axis of the
GPU-style substrate — and over species/reactions — the fine-grained
axis.

The flux is evaluated species-major: one ``(M, B)`` array whose rows
are reactions and whose columns are the simulations of the batch, the
CPU form of the simulation-contiguous layout GPU simulators use to
coalesce memory. Each mass-action row is two row gathers of the
extended ``(N + 1, B)`` state, and the array feeds the stoichiometric
product (BLAS gemm, or scipy's CSR kernel) with no layout round trip.

Three evaluation policies mirror the parallelization granularities of
the GPU simulator family (see DESIGN.md):

* ``"hybrid"``  - vectorized over both the batch and the reactions
  (fine + coarse grained, the paper's contribution);
* ``"coarse"``  - vectorized over the batch only, with a sequential
  sweep over reactions (cupSODA-style coarse-only analog);
* ``"fine"``    - vectorized within each simulation, with a sequential
  sweep over the batch (LASSIE-style fine-only analog).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import KineticsError, ModelError
from .kinetics import Hill, MassAction, MichaelisMenten
from .ratelaws import CustomLaw, Expression
from .rbm import ReactionBasedModel

POLICIES = ("hybrid", "coarse", "fine")

_PROBE_WIDTHS = (1, 2, 3, 5, 9, 17)
#: Net matrices whose probe verdict :func:`_row_stable_gemm` keeps.
PROBE_MEMO_SIZE = 64
_probe_memo: dict[tuple, bool] = {}
_probe_memo_lock = threading.Lock()


def _stoichiometric_gemm(fluxes_t: np.ndarray, net: np.ndarray) -> np.ndarray:
    """``fluxes_t.T @ net``, shape (B, N): species-major fluxes through
    one BLAS gemm whose A operand is transposed, with no copy.

    A single row dispatches to gemv, which rounds differently from
    gemm; it takes the duplicated two-row product instead, so a lone
    surviving simulation gets the exact bits it would inside a wider
    batch.
    """
    if fluxes_t.shape[1] == 1:
        return (fluxes_t.repeat(2, axis=1).T @ net)[:1]
    return fluxes_t.T @ net


def _gemm_rows_are_width_stable(net: np.ndarray) -> bool:
    """Check that each row of :func:`_stoichiometric_gemm` is
    bit-independent of the number of simulations in the product.

    Integrators gather the active subset of a batch before every RHS
    call and the memory governor re-runs arbitrary sub-batches, so row
    results must not depend on array width.  Whether BLAS satisfies
    this depends on the library's row-blocking microkernels (it holds
    for small inner dimensions, breaks somewhere around 8 on common
    builds) — so measure the installed library against the model's own
    net matrix, in the operand layout the RHS uses, instead of assuming
    a threshold.
    """
    rng = np.random.default_rng(0x5EED)
    probe = np.ascontiguousarray(rng.standard_normal((32, net.shape[0])).T)
    reference = _stoichiometric_gemm(probe, net)
    return all(
        np.array_equal(reference[:w], _stoichiometric_gemm(
            np.ascontiguousarray(probe[:, :w]), net))
        for w in _PROBE_WIDTHS)


def _row_stable_gemm(net: np.ndarray) -> bool:
    """:func:`_gemm_rows_are_width_stable`, memoised on the content of
    ``net``: compiling an equal network again (every launch compiles
    its model) reuses the verdict. The memo keeps the newest
    :data:`PROBE_MEMO_SIZE` networks.
    """
    net = np.ascontiguousarray(net)
    key = (net.shape, hashlib.blake2b(net.data, digest_size=16).digest())
    with _probe_memo_lock:
        stable = _probe_memo.get(key)
    if stable is None:
        stable = _gemm_rows_are_width_stable(net)
        with _probe_memo_lock:
            while len(_probe_memo) >= PROBE_MEMO_SIZE:
                del _probe_memo[next(iter(_probe_memo))]
            _probe_memo[key] = stable
    return stable


@dataclass(frozen=True)
class _GenericMonomial:
    """A mass-action reaction of order > 2 (generic slow path)."""

    reaction: int
    species: np.ndarray   # distinct reactant indices
    powers: np.ndarray    # matching exponents (>= 1)


class ODESystem:
    """Vectorized evaluator of an RBM's flux, RHS and Jacobian.

    Build instances with :meth:`from_model`. All evaluators take the
    state with a leading batch axis: ``X`` of shape (B, N) and rate
    constants ``K`` of shape (B, M), (1, M) or (M,) (broadcast over the
    batch). The flux reads ``K`` through its transpose, so a (B, M)
    view of C-contiguous (M, B) constants, as a bound
    :class:`~repro.gpu.BatchedODEProblem` passes them, is multiplied
    with no strided access.
    """

    def __init__(self, model: ReactionBasedModel) -> None:
        self.model = model
        matrices = model.matrices
        self.n_species = model.n_species
        self.n_reactions = model.n_reactions
        self._net = matrices.net.astype(np.float64)
        self._net_csc_t = matrices.net_csr.T.tocsr()  # (N, M) sparse
        # Small stoichiometries go through one BLAS matmul; very large
        # sparse ones through the CSR product.
        self._dense_stoichiometry = (
            self.n_species * self.n_reactions <= 4_000_000)
        # Memory-governed launch splits are only bit-identical if each
        # row's RHS is independent of how many rows share the array.
        # BLAS gemm blocks over rows once the inner dimension exceeds
        # its microkernel width, so probe the actual library with the
        # actual net matrix and fall back to the (row-deterministic)
        # CSR product when the dense path fails the probe.
        self._row_stable_gemm = (self._dense_stoichiometry
                                 and _row_stable_gemm(self._net))
        # Built by the first :meth:`jacobian` call: explicit integrators
        # never need it.
        self._jac_operator = None
        self._compile()

    # ------------------------------------------------------------------
    # compilation

    def _compile(self) -> None:
        n = self.n_species
        one = n  # index of the synthetic "1.0" column in the extended state
        idx1 = np.full(self.n_reactions, one, dtype=np.intp)
        idx2 = np.full(self.n_reactions, one, dtype=np.intp)
        is_fast_ma = np.zeros(self.n_reactions, dtype=bool)
        generic: list[_GenericMonomial] = []
        mm_rows: list[tuple[int, int, float]] = []        # (reaction, substrate, km)
        hill_rows: list[tuple[int, int, float, float]] = []  # (+ n)
        custom_rows: list[tuple[int, CustomLaw, dict[str, Expression],
                                dict[str, int]]] = []

        species_index = self.model.species.index_of
        for i, reaction in enumerate(self.model.reactions):
            law = reaction.law
            if isinstance(law, CustomLaw):
                binding = {}
                for name in law.species_names():
                    if name not in self.model.species:
                        raise KineticsError(
                            f"custom rate law of reaction "
                            f"{reaction.name or i} references unknown "
                            f"species {name!r}")
                    binding[name] = species_index(name)
                custom_rows.append((i, law, law.gradient(), binding))
                continue
            if isinstance(law, MichaelisMenten):
                (substrate_name,) = reaction.reactants
                mm_rows.append((i, species_index(substrate_name), law.km))
                continue
            if isinstance(law, Hill):
                (substrate_name,) = reaction.reactants
                hill_rows.append((i, species_index(substrate_name), law.km, law.n))
                continue
            if not isinstance(law, MassAction):  # pragma: no cover - guard
                raise ModelError(f"unsupported kinetic law {law!r}")
            entries = sorted(
                (species_index(name), coefficient)
                for name, coefficient in reaction.reactants.items())
            order = sum(c for _, c in entries)
            if order == 0:
                is_fast_ma[i] = True
            elif order == 1:
                idx1[i] = entries[0][0]
                is_fast_ma[i] = True
            elif order == 2:
                if len(entries) == 1:       # 2 A -> ...
                    idx1[i] = idx2[i] = entries[0][0]
                else:                        # A + B -> ...
                    idx1[i], idx2[i] = entries[0][0], entries[1][0]
                is_fast_ma[i] = True
            else:
                generic.append(_GenericMonomial(
                    i,
                    np.array([j for j, _ in entries], dtype=np.intp),
                    np.array([c for _, c in entries], dtype=np.float64)))

        self._idx1 = idx1
        self._idx2 = idx2
        self._fast_rows = np.nonzero(is_fast_ma)[0]
        self._generic = generic
        self._mm = mm_rows
        self._hill = hill_rows
        self._custom = custom_rows

    def _compile_partials(self) -> None:
        """Precompute the Jacobian's sparse partial-derivative pattern.

        Each entry p describes one nonzero d(flux_r)/d(x_v); codes select
        the vectorized formula used to evaluate it:
          0: constant k              (order-1 monomial)
          1: k * x[other]            (order-2, distinct reactants)
          2: 2 k * x[v]              (order-2, repeated reactant)
        MM, Hill and generic monomial partials are evaluated separately.
        The scatter operator is assigned last, so a thread that sees it
        also sees the tables it reads.
        """
        react_idx: list[int] = []
        var_idx: list[int] = []
        other_idx: list[int] = []
        codes: list[int] = []
        one = self.n_species
        for i in self._fast_rows:
            j, l = int(self._idx1[i]), int(self._idx2[i])
            if j == one:                    # order 0: no partials
                continue
            if l == one:                    # order 1
                react_idx.append(i); var_idx.append(j)
                other_idx.append(one); codes.append(0)
            elif j == l:                    # 2 A -> ...
                react_idx.append(i); var_idx.append(j)
                other_idx.append(j); codes.append(2)
            else:                           # A + B -> ...
                react_idx.append(i); var_idx.append(j)
                other_idx.append(l); codes.append(1)
                react_idx.append(i); var_idx.append(l)
                other_idx.append(j); codes.append(1)
        self._p_react = np.array(react_idx, dtype=np.intp)
        self._p_var = np.array(var_idx, dtype=np.intp)
        self._p_other = np.array(other_idx, dtype=np.intp)
        self._p_code = np.array(codes, dtype=np.intp)
        self._compile_jacobian_operator()

    def _compile_jacobian_operator(self) -> None:
        """Sparse partials-to-Jacobian scatter operator.

        Maps the vector of partial values V (B, P) to the flattened
        Jacobian: J[b, n, m] = sum_p V[b, p] * S[react_p, n] * [m=var_p],
        i.e. J_flat = V @ Q with Q sparse of shape (P, N*N). Replaces
        the (slow) fancy-index scatter with one sparse matmul.
        """
        from scipy import sparse as _sparse
        n = self.n_species
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        net = self._net
        for p in range(self._p_react.shape[0]):
            reaction = self._p_react[p]
            var = self._p_var[p]
            for out in np.nonzero(net[reaction])[0]:
                rows.append(p)
                cols.append(int(out) * n + int(var))
                data.append(float(net[reaction, out]))
        self._jac_operator = _sparse.csr_matrix(
            (data, (rows, cols)),
            shape=(self._p_react.shape[0], n * n))

    # ------------------------------------------------------------------
    # flux evaluation

    def flux(self, states: np.ndarray, constants: np.ndarray) -> np.ndarray:
        """Reaction flux vector, shape (B, M): a transposed view of the
        species-major fluxes every :meth:`rhs` policy evaluates.
        """
        if states.ndim != 2:
            states = np.atleast_2d(states)
        return self._species_major_flux(states, constants).T

    def _species_major_flux(self, states: np.ndarray,
                            constants: np.ndarray) -> np.ndarray:
        """Reaction fluxes species-major, shape (M, B), C-contiguous.

        A constant-1 row appended to the transposed state lets mass
        action of orders 0-2 share two row gathers; the other rate laws
        overwrite their reaction rows in place, so a mass-action-only
        model pays for the gathers and the constants multiply alone.
        """
        batch = states.shape[0]
        extended = np.empty((self.n_species + 1, batch))
        extended[:-1] = states.T
        extended[-1] = 1.0
        fluxes = extended[self._idx1]
        fluxes *= extended[self._idx2]
        for monomial in self._generic:
            fluxes[monomial.reaction] = np.prod(
                states[:, monomial.species] ** monomial.powers, axis=1)
        for i, substrate, km in self._mm:
            s = states[:, substrate]
            fluxes[i] = s / (km + s)
        for i, substrate, km, hill_n in self._hill:
            s = np.maximum(states[:, substrate], 0.0)
            s_n = s ** hill_n
            fluxes[i] = s_n / (km ** hill_n + s_n)
        # (M, B) or (M, 1): (B, M), (1, M) and (M,) constants all
        # broadcast against the species-major fluxes.
        constants_t = (constants.T if constants.ndim == 2
                       else constants[:, None])
        fluxes *= constants_t
        for i, law, _, binding in self._custom:
            environment = {name: states[:, j]
                           for name, j in binding.items()}
            environment["k"] = np.broadcast_to(constants_t[i], (batch,))
            fluxes[i] = np.broadcast_to(
                law.expression.evaluate(environment), (batch,))
        return fluxes

    # ------------------------------------------------------------------
    # right-hand side

    def rhs(self, states: np.ndarray, constants: np.ndarray,
            policy: str = "hybrid") -> np.ndarray:
        """dX/dt for a batch of states, shape (B, N)."""
        if states.ndim != 2:
            states = np.atleast_2d(states)
        if policy == "hybrid":
            return self._rhs_hybrid(states, constants)
        if policy == "coarse":
            return self._rhs_coarse(states, constants)
        if policy == "fine":
            return self._rhs_fine(states, constants)
        raise ModelError(f"unknown evaluation policy {policy!r}; "
                         f"expected one of {POLICIES}")

    def _rhs_hybrid(self, states: np.ndarray,
                    constants: np.ndarray) -> np.ndarray:
        fluxes_t = self._species_major_flux(states, constants)
        if self._row_stable_gemm:
            return _stoichiometric_gemm(fluxes_t, self._net)
        # (N, M) sparse @ (M, B) -> (N, B); the C-ordered fluxes reach
        # scipy's CSR kernel uncopied, and its fixed-order accumulation
        # keeps rows width-independent.
        return self._net_csc_t.dot(fluxes_t).T

    def _rhs_coarse(self, states: np.ndarray,
                    constants: np.ndarray) -> np.ndarray:
        """Sequential sweep over reactions, vectorized over the batch.

        Models the coarse-grained-only execution in which each device
        thread walks the whole reaction list for its own simulation.
        """
        constants = np.broadcast_to(np.atleast_2d(constants),
                                    (states.shape[0], self.n_reactions))
        derivative = np.zeros_like(states)
        fluxes = self.flux(states, constants)
        net = self._net
        for i in range(self.n_reactions):
            row = net[i]
            for j in np.nonzero(row)[0]:
                derivative[:, j] += row[j] * fluxes[:, i]
        return derivative

    def _rhs_fine(self, states: np.ndarray,
                  constants: np.ndarray) -> np.ndarray:
        """Sequential sweep over the batch, vectorized within each sim."""
        constants = np.broadcast_to(np.atleast_2d(constants),
                                    (states.shape[0], self.n_reactions))
        derivative = np.empty_like(states)
        for b in range(states.shape[0]):
            derivative[b] = self._rhs_hybrid(states[b:b + 1],
                                             constants[b:b + 1])[0]
        return derivative

    def rhs_single(self, state: np.ndarray, constants: np.ndarray) -> np.ndarray:
        """dX/dt for one state vector, shape (N,)."""
        return self._rhs_hybrid(state[None, :], np.atleast_2d(constants))[0]

    # ------------------------------------------------------------------
    # Jacobian

    def jacobian(self, states: np.ndarray,
                 constants: np.ndarray) -> np.ndarray:
        """Batched analytic Jacobian d(dX/dt)/dX, shape (B, N, N)."""
        if self._jac_operator is None:
            self._compile_partials()
        states = np.atleast_2d(states)
        batch = states.shape[0]
        n = self.n_species
        constants = np.broadcast_to(np.atleast_2d(constants),
                                    (batch, self.n_reactions))
        react = self._p_react
        # Partial values for the fast mass-action pattern (codes: 0 -> k,
        # 1 -> k * x_other, 2 -> 2 k * x_other). Only code 0 has the
        # constant-1 column as its other factor, so codes 1 and 2 gather
        # from the state itself.
        values = constants[:, react].copy()
        mask1 = self._p_code == 1
        if np.any(mask1):
            values[:, mask1] *= states[:, self._p_other[mask1]]
        mask2 = self._p_code == 2
        if np.any(mask2):
            values[:, mask2] *= 2.0 * states[:, self._p_other[mask2]]
        # One sparse matmul scatters all partials into the Jacobian.
        jac_flat = self._jac_operator.T.dot(values.T).T   # (B, N*N)
        jac = np.ascontiguousarray(jac_flat.reshape(batch, n, n))
        self._jacobian_slow_paths(jac, states, constants, self._net.T)
        return jac

    def _jacobian_slow_paths(self, jac: np.ndarray, states: np.ndarray,
                             constants: np.ndarray, net_t: np.ndarray) -> None:
        for monomial in self._generic:
            i = monomial.reaction
            column = net_t[:, i]                          # (N,)
            base = states[:, monomial.species] ** monomial.powers  # (B, d)
            for pos, j in enumerate(monomial.species):
                power = monomial.powers[pos]
                partial = constants[:, i] * power
                partial = partial * states[:, j] ** (power - 1.0)
                rest = np.prod(np.delete(base, pos, axis=1), axis=1)
                partial = partial * rest
                jac[:, :, j] += partial[:, None] * column[None, :]
        for i, substrate, km in self._mm:
            s = states[:, substrate]
            partial = constants[:, i] * km / (km + s) ** 2
            jac[:, :, substrate] += partial[:, None] * net_t[:, i][None, :]
        for i, substrate, km, hill_n in self._hill:
            s = np.maximum(states[:, substrate], 1e-300)
            s_n = s ** hill_n
            km_n = km ** hill_n
            partial = (constants[:, i] * hill_n * km_n * s ** (hill_n - 1.0)
                       / (km_n + s_n) ** 2)
            jac[:, :, substrate] += partial[:, None] * net_t[:, i][None, :]
        batch = states.shape[0]
        for i, _, gradient, binding in self._custom:
            environment = {name: states[:, j] for name, j in binding.items()}
            environment["k"] = constants[:, i]
            for name, j in binding.items():
                partial = np.broadcast_to(
                    gradient[name].evaluate(environment), (batch,))
                jac[:, :, j] += partial[:, None] * net_t[:, i][None, :]

    def jacobian_single(self, state: np.ndarray,
                        constants: np.ndarray) -> np.ndarray:
        """Analytic Jacobian for one state, shape (N, N)."""
        return self.jacobian(state[None, :], np.atleast_2d(constants))[0]

    # ------------------------------------------------------------------
    # adapters

    def as_scipy_rhs(self, constants: np.ndarray):
        """``f(t, y)`` callable for scipy-style scalar integrators."""
        constants = np.atleast_2d(np.asarray(constants, dtype=np.float64))

        def fun(t: float, y: np.ndarray) -> np.ndarray:
            return self._rhs_hybrid(np.asarray(y)[None, :], constants)[0]

        return fun

    def as_scipy_jacobian(self, constants: np.ndarray):
        """``jac(t, y)`` callable for scipy-style scalar integrators."""
        constants = np.atleast_2d(np.asarray(constants, dtype=np.float64))

        def jac(t: float, y: np.ndarray) -> np.ndarray:
            return self.jacobian(np.asarray(y)[None, :], constants)[0]

        return jac

    @classmethod
    def from_model(cls, model: ReactionBasedModel) -> "ODESystem":
        return cls(model)
