"""Box-batched kernels: a batch is its members, bit for bit.

``KernelSet.rhs / update / max_rate`` take one patch ``(ncons, *grown)``
or a batch of equal-shape patches ``(ncons, B, *grown)`` with
:class:`StackedMetrics`.  For generated batches every member's slice of
the batched result must be ``np.array_equal`` to the per-member call (on
``fused``: to the per-member ``fused`` call), with per-class launch
points charged to each member's owning rank — and
``ConvectiveFlux.divergence``, which crops the transverse ghost rows
*before* the flux, must equal the crop-afterwards implementation it
replaced, kept here verbatim as the oracle.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import make_exec_backend
from repro.kernels.api import make_kernels
from repro.kernels.device import GpuDevice
from repro.numerics.eos import IdealGasEOS
from repro.numerics.fluxes import (ConvectiveFlux, curvilinear_flux,
                                   wave_speed)
from repro.numerics.metrics import (CartesianMetrics, CurvilinearMetrics,
                                    StackedMetrics)
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity
from repro.numerics.weno import WenoScheme, reconstruct_minus

EOS = IdealGasEOS()
NRANKS = 3


# -- the pre-batching divergence, verbatim ---------------------------------------

def _crop_to_valid(arr, ng, valid_shape):
    sl = []
    for n, nv in zip(arr.shape, valid_shape):
        if n == nv:
            sl.append(slice(None))
        elif n == 1:
            sl.append(slice(None))
        else:
            sl.append(slice(ng, ng + nv))
    return arr[tuple(sl)]


def divergence_crop_afterwards(op, layout, eos, u, metrics, direction, ng):
    """``ConvectiveFlux.divergence`` as it was: every transverse ghost row
    reconstructed, cropped at the end, one scalar alpha."""
    axis = direction + 1
    dim = layout.dim
    rho, vel, p = eos.primitives(layout, u)
    a = eos.sound_speed(layout, u)
    m = metrics.m(direction)
    J = metrics.jacobian()

    fhat = curvilinear_flux(layout, u, vel, p, m, form=op.split_form)
    lam = wave_speed(vel, a, m, J)
    alpha = float(lam.max())
    ju = u * np.broadcast_to(J, lam.shape)[None]
    fplus = 0.5 * (fhat + alpha * ju)
    fminus = 0.5 * (fhat - alpha * ju)

    rec_p = op.scheme.reconstruct(fplus, axis)
    rec_m = reconstruct_minus(op.scheme, fminus, axis)
    f_iface = rec_p + rec_m

    nv = u.shape[axis] - 2 * ng
    start = ng - 3
    sl = [slice(None)] * f_iface.ndim
    sl[axis] = slice(start, start + nv + 1)
    f_iface = f_iface[tuple(sl)]

    df = np.diff(f_iface, axis=axis)
    crop = [slice(None)] * df.ndim
    for d in range(dim):
        if d != direction:
            crop[d + 1] = slice(ng, df.shape[d + 1] - ng)
    df = df[tuple(crop)]
    Jv = _crop_to_valid(np.broadcast_to(J, u.shape[1:]), ng, df.shape[1:])
    return -df / Jv


# -- generated batches -------------------------------------------------------

def member(rng, layout, grown, curvilinear):
    """One patch: a positive random state over ``grown`` and its metrics."""
    dim = layout.dim
    rho = 1.0 + 0.5 * rng.random(grown)
    vel = 0.4 * rng.normal(size=(dim,) + grown)
    p = 1.0 + 0.5 * rng.random(grown)
    u = EOS.conservative(layout, rho, vel, p)
    if not curvilinear:
        return u, CartesianMetrics([0.05 + 0.01 * d for d in range(dim)])
    idx = np.stack(np.meshgrid(*[np.arange(n, dtype=float) for n in grown],
                               indexing="ij"))
    # a smooth, orientation-preserving distortion of the index grid
    coords = 0.05 * (idx + 0.15 * np.sin(0.3 * idx[::-1] + rng.random()))
    return u, CurvilinearMetrics.from_coordinates(coords)


@st.composite
def batches(draw):
    dim = draw(st.sampled_from([1, 2, 2, 3]))
    ordering = draw(st.sampled_from(["fortran", "cpp"]))
    variant = draw(st.sampled_from(["symbo", "symoo", "js5"]))
    viscous = draw(st.booleans()) if dim < 3 else False
    ks = dict(ordering=ordering,
              convective=ConvectiveFlux(scheme=WenoScheme(variant=variant)),
              viscous=(ViscousFlux(constant_viscosity(1e-3))
                       if viscous else None))
    precision = draw(st.sampled_from(["double", "double", "mixed"]))
    layout = StateLayout(dim=dim)
    ng = make_kernels(ks["ordering"], layout, EOS, ks["convective"],
                      ks["viscous"]).nghost
    top = {1: 12, 2: 7, 3: 3}[dim]
    grown = tuple(draw(st.integers(1, top)) + 2 * ng for _ in range(dim))
    nmembers = draw(st.integers(1, 6))
    curvilinear = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = [member(rng, layout, grown, curvilinear)
               for _ in range(nmembers)]
    ranks = [draw(st.integers(0, NRANKS - 1)) for _ in range(nmembers)]
    return layout, ks, precision, ng, members, ranks


def kernels_on(target, layout, ks, precision):
    backend = make_exec_backend(
        target, [GpuDevice(name=f"r{r}") for r in range(NRANKS)])
    out = make_kernels(ks["ordering"], layout, EOS, ks["convective"],
                       ks["viscous"], exec_backend=backend)
    out.precision = precision
    return out


def charged(kernels):
    """{(rank, kernel class): points} over the backend's devices."""
    out = Counter()
    for rank, dev in enumerate(kernels.exec_backend.devices):
        for rec, n in dev.table.items():
            out[rank, rec.kernel_class] += rec.npoints * n
    return out


@settings(max_examples=40)
@given(batches(), st.sampled_from(["host", "device", "fused"]))
def test_batched_equals_per_member(batch, target):
    layout, ks, precision, ng, members, ranks = batch
    valid = (Ellipsis,) + (slice(ng, -ng),) * layout.dim
    stack = np.stack([u for u, _ in members], axis=1)
    dus = np.random.default_rng(1).normal(size=stack[valid].shape)
    metrics = StackedMetrics([met for _, met in members])

    one = kernels_on(target, layout, ks, precision)
    ref_rhs, ref_u, ref_du, ref_rate = [], [], [], []
    for b, (u, met) in enumerate(members):
        # members now view the stack: the same values, other strides
        ref_rhs.append(one.rhs(u, met, ng, ranks[b]))
        ub, dub = u[valid].copy(), dus[:, b].copy()
        one.update(ub, dub, ref_rhs[-1], 0.01, 1, ranks[b])
        ref_u.append(ub), ref_du.append(dub)
        ref_rate.append(one.max_rate(u[valid], met.interior(ng), ranks[b]))

    many = kernels_on(target, layout, ks, precision)
    rhs = many.rhs(stack, metrics, ng, ranks)
    u_valid, du = stack[valid].copy(), dus.copy()
    many.update(u_valid, du, rhs, 0.01, 1, ranks)
    # the batch's rates as a step takes them: of the stage bound once
    rates = many.max_rate(many.bind([(stack, metrics, ng, ranks)])[0])

    # every owning rank is charged its own members' points, in fewer launches
    assert charged(many) == charged(one)
    assert (sum(d.table.total() for d in many.exec_backend.devices)
            <= sum(d.table.total() for d in one.exec_backend.devices))
    for b in range(len(members)):
        assert np.array_equal(rhs[:, b], ref_rhs[b]), f"rhs of member {b}"
        assert np.array_equal(u_valid[:, b], ref_u[b])
        assert np.array_equal(du[:, b], ref_du[b])
        assert rates[b] == ref_rate[b]
        # a member of the stack is the patch it was built from
        assert np.array_equal(
            one.rhs(stack[:, b], metrics.member(b), ng), ref_rhs[b])


@settings(max_examples=60)
@given(batches())
def test_divergence_equals_the_crop_afterwards_oracle(batch):
    layout, ks, _, ng, members, _ = batch
    op = ConvectiveFlux(scheme=ks["convective"].scheme,
                        split_form=("fused" if ks["ordering"] == "fortran"
                                    else "distributed"))
    metrics = StackedMetrics([met for _, met in members])
    stack = np.stack([u for u, _ in members], axis=1)
    for d in range(layout.dim):
        got = op.divergence(layout, EOS, stack, metrics, d, ng)
        for b, (u, met) in enumerate(members):
            want = divergence_crop_afterwards(op, layout, EOS, u, met, d, ng)
            assert np.array_equal(op.divergence(layout, EOS, u, met, d, ng),
                                  want), f"direction {d}, member {b}"
            assert np.array_equal(got[:, b], want), (
                f"direction {d}, member {b} of the stack")


def test_size_one_broadcast_axes_and_a_1d_box():
    """The named shapes: CartesianMetrics' size-1 axes are never cropped,
    and a 1-D box has no transverse direction at all."""
    rng = np.random.default_rng(5)
    for dim, grown in ((1, (19,)), (2, (14, 11)), (3, (9, 10, 11))):
        layout = StateLayout(dim=dim)
        u, met = member(rng, layout, grown, curvilinear=False)
        assert all(n == 1 for n in met.jacobian().shape)
        op = ConvectiveFlux()
        for d in range(dim):
            assert np.array_equal(
                op.divergence(layout, EOS, u, met, d, 4),
                divergence_crop_afterwards(op, layout, EOS, u, met, d, 4))


def test_one_rank_for_a_whole_batch_is_charged_every_member():
    """``rank`` may be a single rank: it owns every member of the batch."""
    rng = np.random.default_rng(9)
    layout = StateLayout(dim=2)
    members = [member(rng, layout, (13, 12), curvilinear=True)
               for _ in range(3)]
    ks = kernels_on("device", layout, dict(
        ordering="cpp", convective=ConvectiveFlux(), viscous=None), "double")
    stack = np.stack([u for u, _ in members], axis=1)
    metrics = StackedMetrics([met for _, met in members])
    ks.rhs(stack, metrics, 4, rank=2)
    rates = ks.max_rate(stack, metrics, rank=2)
    assert rates.shape == (3,)
    assert charged(ks) == {(2, "flux"): 2 * 3 * 5 * 4,
                           (2, "reduction"): 3 * 13 * 12}
