"""Per-configuration reference for the array-backed basis and builders.

Independent oracle for ``grid.Basis`` and the operators built over it:
configurations are enumerated with itertools as plain tuples, indexed
through a dict, and every operator entry is computed in a Python loop
over configurations. Each entry goes through the same float operations
in the same order as the package's array expressions, so the package
must match it exactly, not merely to a tolerance.
"""

import itertools

import numpy as np

from mergosim.criteria import SymmetrizedCriterion
from mergosim.grid import SPIN_DOWN, SPIN_UP
from mergosim.units import unit_convert


def enumerate_configurations(grid, particles):
    """(labels, spins) tuples; the first register varies slowest, and
    per register the lattice label is the major key, spin the minor."""
    axis = range(-grid.max_label, grid.max_label + 1)
    per_register = []
    for p in range(particles.n_particles):
        spins = (SPIN_UP, SPIN_DOWN) if particles.has_spin(p) else (None,)
        per_register.append([(lab, s)
                             for lab in itertools.product(axis, repeat=grid.dims)
                             for s in spins])
    return [(tuple(lab for lab, _ in combo), tuple(s for _, s in combo))
            for combo in itertools.product(*per_register)]


def index_table(configs):
    return {cfg: i for i, cfg in enumerate(configs)}


def _coords(grid, labels):
    return np.array([np.array(lab, dtype=float) * grid.spacing
                     for lab in labels])


def _entries(table):
    """Sorted (rows, cols, values) arrays of a {(row, col): value} dict."""
    keys = sorted(table)
    return (np.array([r for r, _ in keys], dtype=np.intp),
            np.array([c for _, c in keys], dtype=np.intp),
            np.array([table[k] for k in keys]))


def kinetic(grid, particles, configs, index, registers):
    """Nonzero entries of the 3-point Dirichlet kinetic stencil."""
    table = {}
    h = grid.spacing
    for i, (labels, spins) in enumerate(configs):
        for p in registers:
            c = 1.0 / (2.0 * particles.mass(p) * h * h)
            table[i, i] = table.get((i, i), 0.0) + 2.0 * c * grid.dims
            for axis in range(grid.dims):
                for step in (-1, 1):
                    moved = list(labels[p])
                    moved[axis] += step
                    if abs(moved[axis]) > grid.max_label:
                        continue
                    image = list(labels)
                    image[p] = tuple(moved)
                    j = index[tuple(image), spins]
                    table[j, i] = table.get((j, i), 0.0) - c
    return _entries(table)


def coulomb(grid, particles, configs, softening, pairs):
    diag = np.zeros(len(configs))
    for idx, (labels, _) in enumerate(configs):
        coords = _coords(grid, labels)
        total = 0.0
        for i, j in pairs:
            d2 = float(np.sum((coords[i] - coords[j]) ** 2))
            total += particles.charge(i) * particles.charge(j) / np.sqrt(
                d2 + softening * softening)
        diag[idx] = total
    return diag


def point_charges(grid, particles, configs, centers, charges, softening):
    diag = np.zeros(len(configs))
    for idx, (labels, _) in enumerate(configs):
        coords = _coords(grid, labels)
        val = 0.0
        for p in range(particles.n_particles):
            for c, q in zip(centers, charges):
                d2 = float(np.sum((coords[p] - np.asarray(c, float)) ** 2))
                val += particles.charge(p) * q / np.sqrt(d2 + softening ** 2)
        diag[idx] = val
    return diag


def trap(grid, particles, configs, centers, frequencies):
    diag = np.zeros(len(configs))
    for idx, (labels, _) in enumerate(configs):
        coords = _coords(grid, labels)[particles.n_el:]
        total = 0.0
        for j in range(particles.n_nuc):
            disp = coords[j] - np.asarray(centers[j], dtype=float)
            w = np.asarray(frequencies[j], dtype=float)
            total += 0.5 * particles.nuclear_masses[j] * float(
                np.sum(w * w * disp * disp))
        diag[idx] = total
    return diag


def permute(cfg, order):
    """Slot k receives the content of slot order[k]."""
    labels, spins = cfg
    return (tuple(labels[k] for k in order), tuple(spins[k] for k in order))


def permutation(configs, index, order):
    return np.array([index[permute(cfg, order)] for cfg in configs],
                    dtype=np.intp)


def spin_squared(configs, index, regs):
    """Nonzero entries of S^2 over the spin registers ``regs``."""
    table = {}
    for idx, (labels, spins) in enumerate(configs):
        sz = [0.5 if spins[r] == SPIN_UP else -0.5 for r in regs]
        diag = 0.75 * len(regs)
        for i in range(len(regs)):
            for j in range(i + 1, len(regs)):
                diag += 2.0 * sz[i] * sz[j]
                if spins[regs[i]] != spins[regs[j]]:
                    flipped = list(spins)
                    flipped[regs[i]], flipped[regs[j]] = \
                        spins[regs[j]], spins[regs[i]]
                    key = (index[labels, tuple(flipped)], idx)
                    table[key] = table.get(key, 0.0) + 1.0
        table[idx, idx] = diag
    return _entries(table)


def apply_entries(entries, x):
    """The sparse matrix of (rows, cols, values) entries times an array
    whose first axis is the basis index."""
    rows, cols, values = entries
    out = np.zeros(x.shape, dtype=complex)
    np.add.at(out, rows, values.reshape(values.shape + (1,) * (x.ndim - 1))
              * x[cols])
    return out


def accepts(criterion, grid, particles, cfg):
    """Whether one configuration meets the criterion: constraint rows in
    turn, each distance the norm of one coordinate difference; a
    symmetrized criterion tries its base on every group image."""
    if isinstance(criterion, SymmetrizedCriterion):
        n_part = particles.n_particles
        return any(accepts(criterion.base, grid, particles,
                           permute(cfg, [perm(k) for k in range(n_part)]))
                   for perm in criterion.permutations)
    labels, _ = cfg
    for j, k, *bounds in criterion.constraints:
        a = np.array(labels[particles.n_el + j], dtype=float) * grid.spacing
        b = np.array(labels[particles.n_el + k], dtype=float) * grid.spacing
        dist = float(np.linalg.norm(a - b))
        limits = [unit_convert(x, criterion.unit, "bohr") for x in bounds]
        if criterion.mode == "equilibrium":
            if abs(dist - limits[0]) > limits[1]:
                return False
        elif dist > limits[0]:
            return False
    return True


def first_violation(evaluate, configs, orders):
    """(position, generator position) of the first configuration that a
    generator moves across the criterion's split, or None."""
    for i, cfg in enumerate(configs):
        ref = evaluate(cfg)
        for g, order in enumerate(orders):
            if evaluate(permute(cfg, order)) != ref:
                return i, g
    return None
