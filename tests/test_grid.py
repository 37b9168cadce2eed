import numpy as np
import pytest

from mergosim.errors import DimensionCapExceeded
from mergosim.grid import (SPIN_DOWN, SPIN_UP, Configuration, GridSpec,
                           ParticleSet, basis_dimension, enumerate_basis)


def test_spacing_and_label_range():
    g = GridSpec(points_per_axis=5, dims=1, box_length=10.0)
    assert g.spacing == 2.0
    assert g.max_label == 2


def test_even_m_rejected():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=4, dims=1, box_length=1.0)


def test_label_to_coord_examples():
    # label p sits at p * L / m
    g = GridSpec(5, 1, 10.0)
    assert 0 * g.spacing == 0.0
    assert 2 * g.spacing == 4.0
    # 50 * 10 / 101, evaluated by hand
    g2 = GridSpec(101, 1, 10.0)
    assert 50 * g2.spacing == pytest.approx(4.9504950495049505, abs=1e-12)


def test_coords_stay_strictly_inside_box():
    g = GridSpec(9, 2, 7.0)
    coords = enumerate_basis(g, ParticleSet(n_el=1)).labels * g.spacing
    assert np.all(np.abs(coords) < g.box_length / 2)


def test_coordinate_symmetry():
    # negating every label reverses the lexicographic order
    g = GridSpec(7, 3, 5.0)
    coords = enumerate_basis(g, ParticleSet(n_el=1)).labels * g.spacing
    assert np.allclose(coords[::-1], -coords)


def test_single_spinless_particle_basis():
    basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=1))
    assert basis.size == 3
    assert [basis.configuration_at(i).labels[0][0] for i in range(3)] \
        == [-1, 0, 1]


def test_two_particle_basis_order():
    basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
    assert basis.size == 9
    assert basis.configuration_at(0).labels == ((-1,), (-1,))
    # first register is the slow index
    assert basis.configuration_at(1).labels == ((-1,), (0,))


def test_dimension_cap():
    grid = GridSpec(101, 3, 10.0)
    particles = ParticleSet(n_el=2, nuclear_masses=(1836.0, 1836.0),
                            nuclear_charges=(1.0, 1.0))
    with pytest.raises(DimensionCapExceeded):
        enumerate_basis(grid, particles)


def test_basis_size_formula_with_spin():
    grid = GridSpec(3, 1, 3.0)
    particles = ParticleSet(n_el=2, electron_spin=True)
    basis = enumerate_basis(grid, particles, cap=100)
    assert basis.size == (3 * 2) ** 2
    assert basis.size == basis_dimension(grid, particles)


def test_index_bijection():
    basis = enumerate_basis(GridSpec(3, 2, 3.0),
                            ParticleSet(n_el=1, nuclear_masses=(10.0,),
                                        nuclear_charges=(1.0,)))
    for i in range(basis.size):
        assert basis.index_of(basis.configuration_at(i)) == i


@pytest.mark.parametrize("labels, spins", [
    (((2,), (0,)), (SPIN_UP, None)),        # label outside the lattice
    (((-2,), (0,)), (SPIN_UP, None)),
    (((0, 0), (0,)), (SPIN_UP, None)),      # label of the wrong length
    (((0.5,), (0,)), (SPIN_UP, None)),      # label off the lattice points
    (((0,), (0,)), (SPIN_UP, SPIN_DOWN)),   # spin on a spinless register
    (((0,), (0,)), (None, None)),           # no spin on a spin register
    (((0,), (0,)), (2, None)),              # not a spin label
    (((0,),), (SPIN_UP,)),                  # too few registers
])
def test_configuration_outside_the_basis_never_wraps(labels, spins):
    basis = enumerate_basis(GridSpec(3, 1, 3.0),
                            ParticleSet(n_el=1, nuclear_masses=(10.0,),
                                        nuclear_charges=(1.0,),
                                        electron_spin=True))
    config = Configuration(labels, spins)
    assert config not in basis
    with pytest.raises(KeyError):
        basis.index_of(config)


def test_basis_arrays_are_read_only():
    basis = enumerate_basis(GridSpec(3, 1, 3.0), ParticleSet(n_el=2))
    with pytest.raises(ValueError):
        basis.labels[0, 0, 0] = 5
    with pytest.raises(ValueError):
        basis.spins[0, 0] = 0


def unravelled_basis(grid, particles):
    """(labels, spins) built digit by digit with np.unravel_index."""
    has_spin = np.array([particles.has_spin(p)
                         for p in range(particles.n_particles)])
    radices = tuple(r for has in has_spin for r in
                    (grid.points_per_axis,) * grid.dims + (2 if has else 1,))
    digits = np.stack(np.unravel_index(np.arange(np.prod(radices)), radices),
                      axis=-1)
    digits = digits.reshape(-1, particles.n_particles, grid.dims + 1)
    return (digits[..., :-1] - grid.max_label,
            np.where(has_spin, digits[..., -1], -1))


@pytest.mark.parametrize("grid, particles", [
    (GridSpec(5, 1, 5.0), ParticleSet(n_el=2, electron_spin=True)),
    (GridSpec(3, 2, 3.0), ParticleSet(n_el=1, nuclear_masses=(5.0,),
                                      nuclear_charges=(1.0,),
                                      electron_spin=True)),
    (GridSpec(3, 3, 3.0), ParticleSet(n_el=1, nuclear_masses=(5.0,),
                                      nuclear_charges=(1.0,),
                                      nuclear_spin=True)),
    (GridSpec(9, 1, 9.0), ParticleSet(n_el=0, nuclear_masses=(1.0,) * 4,
                                      nuclear_charges=(1.0,) * 4)),
], ids=["1d_spin", "2d_spin_electron", "3d_spin_nucleus", "1d_four_nuclei"])
def test_basis_arrays_equal_the_unravelled_digits(grid, particles):
    basis = enumerate_basis(grid, particles, cap=10_000)
    labels, spins = unravelled_basis(grid, particles)
    for got, want in ((basis.labels, labels), (basis.spins, spins)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous


def test_tensor_axes_carry_one_label_column_each():
    particles = ParticleSet(n_el=1, nuclear_masses=(5.0,),
                            nuclear_charges=(1.0,), electron_spin=True)
    basis = enumerate_basis(GridSpec(3, 2, 3.0), particles)
    shape = basis.tensor_shape
    assert shape == (3, 3, 2, 3, 3, 1)
    assert int(np.prod(shape)) == basis.size
    for register in range(2):
        for axis in range(2):
            k = basis.tensor_axis(register, axis)
            column = basis.labels[:, register, axis].reshape(shape)
            # the label runs along its own tensor axis and nowhere else
            along = np.arange(-1, 2).reshape(
                [3 if i == k else 1 for i in range(len(shape))])
            assert np.array_equal(column, np.broadcast_to(along, shape))
    with pytest.raises(IndexError):
        basis.tensor_axis(2, 0)


def test_particle_accessors():
    p = ParticleSet(n_el=1, nuclear_masses=(1836.0,), nuclear_charges=(1.0,))
    assert p.mass(0) == 1.0 and p.charge(0) == -1.0
    assert p.mass(1) == 1836.0 and p.charge(1) == 1.0
    with pytest.raises(ValueError):
        ParticleSet(n_el=1, nuclear_masses=(-5.0,), nuclear_charges=(1.0,))
