"""Independent routes that the tests compare the library against.

None of these is reached by the CLI: the left derivative, Berezin
integration, the double translation and the one-matrix Pfaffian loop check
the Gaussian calculus, the majorant's value by Newton inversion of the
characteristic map checks the series reversion of
``majorant_coefficients``, step halving checks the RK4 steps of
``flow_integrate``, and RK4 with the rate read one scale at a time checks
its block reads.  ``flow_states`` is no route of its own: it shows the
states of ``flow_integrate``'s RK4 loop as full elements, for the routes
and the tests to compare.  Test modules import them as they import
``conftest``.
"""

import math

import numpy as np

from ferroflow.algebra import (
    _WEDGE_LEAF,
    GeneratorSet,
    GrassmannElement,
    _deriv_table,
    _index_set,
    _is_exactly_neutral_real,
    _popcount_table,
    merge_sign,
)
from ferroflow.errors import ExistenceError
from ferroflow.flow import (
    FlowTrajectory,
    _carrier_flow,
    _flow_rhs,
    flow_integrate,
)
from ferroflow.gaussian import AntisymmetricCovariance, _laplacian_weights
from ferroflow.majorant import CharacteristicSolution, MajorantSpec, existence_check


def derivative(f, k):
    """Left derivative with respect to generator ``k``: on an ascending
    monomial containing ``psi_k`` at (1-based) position ``r`` it removes
    ``psi_k`` and multiplies by ``(-1)**(r-1)``."""
    if not 0 <= k < f.gens.count:
        raise IndexError(f"generator index {k} out of range 0..{f.gens.count - 1}")
    src, dst, sgn = _deriv_table(f.gens.count, k)
    out = np.zeros(f.gens.dim, dtype=np.complex128)
    out[dst] = sgn * f.coeffs[src]
    return GrassmannElement(f.gens, out)


def berezin_integrate(f, indices):
    """Berezin integral over the listed generators: iterated left
    differentiation, ``d/dpsi_{j1}`` first.  Integrating over all
    generators extracts the top coefficient."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("repeated index in Berezin integration list")
    out = f
    for k in idx:
        out = derivative(out, k)
    return out


def translate_double(f):
    """Substitute ``psi_i -> psi_i + theta_i`` on a doubled generator set.

    The result lives on ``2 * count`` generators with the original psi block
    first (bits ``0..count-1``) and the theta block second.  Restricting the
    theta block to zero recovers ``f``.
    """
    n_gen = f.gens.count
    doubled = GeneratorSet(2 * n_gen)
    out = np.zeros(doubled.dim, dtype=np.complex128)
    for mask in np.flatnonzero(f.coeffs):
        mask = int(mask)
        z = f.coeffs[mask]
        sub = mask
        while True:
            t = mask ^ sub  # theta-block subset
            out[sub | (t << n_gen)] += merge_sign(sub, t) * z
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return GrassmannElement(doubled, out)


def pfaffian_by_loop(a) -> complex:
    """Pfaffian of one even-dimensional antisymmetric matrix by the pivoted
    skew tridiagonalization, one matrix at a time with scalar bookkeeping:
    the route ``gaussian.pfaffian`` replaced with its stacked form."""
    m = np.array(a, dtype=np.complex128)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    value = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(m[k + 1:, k])))
        if pivot != k + 1:
            m[[k + 1, pivot], :] = m[[pivot, k + 1], :]
            m[:, [k + 1, pivot]] = m[:, [pivot, k + 1]]
            value = -value
        if m[k + 1, k] == 0:
            return 0.0 + 0.0j
        value *= m[k, k + 1]
        if k + 2 < n:
            tau = m[k, k + 2:] / m[k, k + 1]
            col = m[k + 2:, k + 1]
            m[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(value)


def initial_datum(char: CharacteristicSolution, z0):
    """Initial value ``phi0(z0)`` of the majorant datum of ``char``
    (z-dependent part plus its constant)."""
    if char.kind == "logarithmic":
        l2 = char.lam ** 2
        return -0.5 * np.log(1.0 - l2 * z0 * z0)
    a, s = char.alpha, char.sigma
    return 0.5 * a * ((s + z0) ** 4 + (s - z0) ** 4)


def characteristic_value(char: CharacteristicSolution, z):
    """Value ``phi(tau, z)`` at a real scalar or array ``z`` inside the
    certified window, along the characteristic found by ``char.invert``
    (which refuses every other ``z``)."""
    z0 = char.invert(z)
    u = char.u0(z0)
    return initial_datum(char, z0) - 0.5 * char.tau * u * u


def datum_constant(spec: MajorantSpec, sigma: float) -> float:
    """Constant part of the Gram-shifted datum that the characteristic's
    logarithmic datum leaves out."""
    if spec.kind == "quartic":
        return 0.0  # the quartic datum already carries its constant
    return -math.log(1.0 - sigma / spec.R)


def majorant_value(spec: MajorantSpec, t: float, z: float) -> float:
    """Majorant ``phi(t, z)``: the Hamilton-Jacobi solution at rescaled time
    ``tau(t)`` with the Gram-shifted datum, plus the datum's constant part.
    """
    report = existence_check(spec, t)
    if not report.holds:
        raise ExistenceError(
            "majorant existence condition fails: " + report.as_text())
    value = characteristic_value(spec.characteristic(report), z)
    return float(value) + datum_constant(spec, report.sigma)


def refine_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    """``grid`` with every step split into ``factor`` equal steps."""
    pieces = [np.linspace(grid[i], grid[i + 1], factor + 1)[:-1]
              for i in range(len(grid) - 1)]
    return np.concatenate(pieces + [grid[-1:]])


def grid_deviation(coarse, fine, stride: int) -> float:
    """Largest coefficient deviation between the states of ``coarse`` and
    every ``stride``-th state of ``fine``."""
    dev = 0.0
    for i, state in enumerate(coarse):
        other = fine[i * stride]
        dev = max(dev, float(np.max(np.abs(state.coeffs - other.coeffs))))
    return dev


def flow_states(schedule, f0, grid, truncate_ge2: bool = False):
    """The ``(state, log_norm)`` pairs of ``flow_integrate``'s RK4 loop,
    ``_carrier_flow``, on the step boundaries ``grid``: ``f0`` with a zero
    scalar part first, then each carrier vector of each block, row by row,
    scattered into a fresh full element.  It refuses what ``_carrier_flow``
    refuses, at the first ``next``, and a block's refusal before any of its
    states."""
    neutral, states = _carrier_flow(schedule, f0, grid, truncate_ge2)
    gens = f0.gens
    index = _index_set(gens.count, True, neutral)
    next(states)  # f0 itself, yielded as its full vector
    y0 = f0.coeffs.copy()
    y0[0] = 0.0
    yield GrassmannElement._adopt(gens, y0), 0.0 + 0.0j
    for ys, cs in states:
        for y, c in zip(ys, cs.tolist()):
            state = np.zeros(gens.dim, dtype=np.complex128)
            state[index] = y
            yield GrassmannElement._adopt(gens, state), c


def step_halving_flow(schedule, f0, steps: int, t_end: float,
                      truncate_ge2: bool = False, tol: float = 1e-7
                      ) -> FlowTrajectory:
    """``flow_integrate`` on ``steps`` uniform steps; the states that
    ``flow_states`` yields there, at half and at quarter step must agree
    within ``tol``, and the returned trajectory notes both deviations."""
    grid = np.linspace(0.0, t_end, steps + 1)
    base, half, quarter = (
        [state for state, _ in flow_states(
            schedule, f0, refine_grid(grid, factor), truncate_ge2)]
        for factor in (1, 2, 4))
    dev = grid_deviation(base, half, stride=2)
    dev2 = grid_deviation(half, quarter, stride=2)
    if max(dev, dev2) > tol:
        raise AssertionError(
            f"step-halving certificate failed: deviations {dev:.3e}, "
            f"{dev2:.3e} exceed {tol:.3e}")
    traj = flow_integrate(schedule, f0, truncate_ge2=truncate_ge2,
                          steps=steps, t_end=t_end)
    traj.notes.append(
        f"step-halving certificate: dev(h/2)={dev:.3e}, dev(h/4)={dev2:.3e}")
    return traj


def flow_states_by_node(schedule, f0, grid, truncate_ge2: bool = False):
    """The ``(state, log_norm)`` pairs of ``flow_states`` on ``grid`` from
    RK4 on the same carrier with ``_flow_rhs``, which is also the oracle of
    the dense right-hand side up to 8 generators, and with the kernel read
    one scale at a time: at the start of the grid, then at every step's
    midpoint and end, each read followed by its own Laplacian weights.  It
    checks none of the inputs that ``_carrier_flow`` refuses."""
    gens = f0.gens
    n_gen = gens.count
    y0 = f0.coeffs.copy()
    y0[0] = 0.0
    neutral = n_gen <= _WEDGE_LEAF and _is_exactly_neutral_real(y0)
    index = _index_set(n_gen, True, neutral)
    low = _popcount_table(n_gen)[index] < 4 if truncate_ge2 else None
    y = y0[index].real if neutral else y0[index]

    def weights_at(t):
        c = schedule.cdot(t)
        if not neutral:
            return _laplacian_weights(AntisymmetricCovariance._block(c),
                                      n_gen, True)
        return _laplacian_weights(np.real(c), n_gen, True, True)

    c = 0.0 + 0.0j
    w4 = weights_at(grid[0])
    yield GrassmannElement(gens, y0), c
    for i in range(len(grid) - 1):
        t0, t1 = grid[i], grid[i + 1]
        h = t1 - t0
        w1 = w4  # the rate at the end of the previous step
        w2 = weights_at(t0 + 0.5 * h)
        w4 = weights_at(t1)
        k1, c1 = _flow_rhs(w1, y, n_gen, low, neutral)
        k2, c2 = _flow_rhs(w2, y + 0.5 * h * k1, n_gen, low, neutral)
        k3, c3 = _flow_rhs(w2, y + 0.5 * h * k2, n_gen, low, neutral)
        k4, c4 = _flow_rhs(w4, y + h * k3, n_gen, low, neutral)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0] = 0.0
        c = c + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        state = np.zeros(1 << n_gen, dtype=np.complex128)
        state[index] = y
        yield GrassmannElement(gens, state), c
