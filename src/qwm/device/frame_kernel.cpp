// The frame-lookup kernel. Compiled with -ffp-contract=off (see
// CMakeLists) so the operation sequence below is also the rounding
// sequence; the golden delay tables pin these bits.
#include "qwm/device/frame_kernel.h"

#include <cassert>

namespace qwm::device::kernel {

namespace {

/// Kernel-local axis locate: UniformAxis::locate's index and clamp
/// semantics, but scaling by a precomputed reciprocal of dx instead of
/// dividing, so batch loops can hoist it. (The reciprocal shifts interior
/// results by at most one ulp of t relative to UniformAxis::locate — the
/// blend is continuous across cell boundaries, so downstream values move
/// by ulps only.)
inline void kernel_locate(const numeric::UniformAxis& a, double inv_dx,
                          double x, std::size_t& idx, double& frac) {
  const double t = (x - a.x0) * inv_dx;
  if (t <= 0.0) {
    idx = 0;
    frac = 0.0;
    return;
  }
  if (t >= static_cast<double>(a.n - 1)) {
    idx = a.n - 2;
    frac = 1.0;
    return;
  }
  idx = static_cast<std::size_t>(t);
  if (idx > a.n - 2) idx = a.n - 2;  // defensive, mirrors UniformAxis
  frac = t - static_cast<double>(idx);
}

/// The located half of the lookup: blend arithmetic at an already
/// resolved grid cell. Split out so the corner-lane path can locate once
/// and blend per grid.
inline FrameEval frame_blend(const CharacterizationGrid& g, std::size_t i0,
                             double f0, std::size_t i1, double f1, double u) {
  const CharacterizedPoint& p00 = g.at(i0, i1);
  const CharacterizedPoint& p01 = g.at(i0, i1 + 1);
  const CharacterizedPoint& p10 = g.at(i0 + 1, i1);
  const CharacterizedPoint& p11 = g.at(i0 + 1, i1 + 1);
  // Corner evaluations, computed once and reused for the value and both
  // table-axis derivatives.
  const double e00 = p00.eval(u);
  const double e01 = p01.eval(u);
  const double e10 = p10.eval(u);
  const double e11 = p11.eval(u);
  const double i = e00 * (1 - f0) * (1 - f1) + e01 * (1 - f0) * f1 +
                   e10 * f0 * (1 - f1) + e11 * f0 * f1;
  const double d00 = p00.deriv(u);
  const double d01 = p01.deriv(u);
  const double d10 = p10.deriv(u);
  const double d11 = p11.deriv(u);
  const double di_du = d00 * (1 - f0) * (1 - f1) + d01 * (1 - f0) * f1 +
                       d10 * f0 * (1 - f1) + d11 * f0 * f1;

  // Interpolant derivatives along the table axes (u held fixed), in the
  // same reciprocal form as kernel_locate.
  const double lo_vs = e00 * (1 - f1) + e01 * f1;
  const double hi_vs = e10 * (1 - f1) + e11 * f1;
  const double di_dvs_axis = (hi_vs - lo_vs) * (1.0 / g.vs_axis.dx);

  const double lo_vg = e00 * (1 - f0) + e10 * f0;
  const double hi_vg = e01 * (1 - f0) + e11 * f0;
  const double di_dvg_axis = (hi_vg - lo_vg) * (1.0 / g.vg_axis.dx);

  FrameEval out;
  out.i = i;
  out.d_vd = di_du;
  // vs enters both the table axis and u = vd - vs.
  out.d_vs = di_dvs_axis - di_du;
  out.d_vg = di_dvg_axis;
  return out;
}

}  // namespace

void eval_frames(const CharacterizationGrid& g, std::size_t n,
                 const double* vg, const double* vs, const double* vd,
                 FrameEval* out) {
  for (std::size_t k = 0; k < n; ++k) {
    assert(vd[k] >= vs[k]);
    const double u = vd[k] - vs[k];
    std::size_t i0, i1;
    double f0, f1;
    kernel_locate(g.vs_axis, 1.0 / g.vs_axis.dx, vs[k], i0, f0);
    kernel_locate(g.vg_axis, 1.0 / g.vg_axis.dx, vg[k], i1, f1);
    out[k] = frame_blend(g, i0, f0, i1, f1, u);
  }
}

void eval_frames_multi(const CharacterizationGrid* const* grids,
                       std::size_t grid_count, std::size_t n,
                       const double* vg, const double* vs, const double* vd,
                       FrameEval* const* out) {
  if (grid_count == 0) return;
  const CharacterizationGrid& g0 = *grids[0];
  const double inv_vs_dx = 1.0 / g0.vs_axis.dx;
  const double inv_vg_dx = 1.0 / g0.vg_axis.dx;
  for (std::size_t k = 0; k < n; ++k) {
    // Located once on the shared axes, blended per grid.
    const double u = vd[k] - vs[k];
    std::size_t i0, i1;
    double f0, f1;
    kernel_locate(g0.vs_axis, inv_vs_dx, vs[k], i0, f0);
    kernel_locate(g0.vg_axis, inv_vg_dx, vg[k], i1, f1);
    for (std::size_t m = 0; m < grid_count; ++m)
      out[m][k] = frame_blend(*grids[m], i0, f0, i1, f1, u);
  }
}

}  // namespace qwm::device::kernel
