// Frame-evaluation kernel of the tabular device model.
//
// The tabular device model's hot path is the interpolated frame lookup:
// locate the (Vs, Vg) grid cell, evaluate the four corner fits at
// u = Vd - Vs, and bilinearly blend the value and its partials. This file
// is the single home of that arithmetic: one portable scalar loop,
// compiled with -ffp-contract=off so the operation-by-operation IEEE
// semantics are pinned (no fused multiply-adds on FMA-capable hosts). The
// golden delay tables and the budget counters depend on that rounding
// sequence.
#pragma once

#include <cstddef>

#include "qwm/device/characterize.h"

namespace qwm::device::kernel {

/// Table lookup result in the NMOS-normalized frame at the reference
/// geometry (drain -> source channel current and its partials).
struct FrameEval {
  double i = 0.0;      ///< channel current drain -> source, ref geometry
  double d_vg = 0.0;   ///< partials w.r.t. gate, source, drain voltage
  double d_vs = 0.0;
  double d_vd = 0.0;
};

/// Fixed group width the engines' simd_batches counters are normalized
/// to (ceil(n / kSimdWidth) per batch call), so the counters are a pure
/// function of the batch sizes on every host.
inline constexpr std::size_t kSimdWidth = 4;

/// n independent frame lookups: out[k] is the bilinear blend of grid `g`
/// at (vs[k], vg[k]) evaluated at u = vd[k] - vs[k]. Requires vd >= vs.
void eval_frames(const CharacterizationGrid& g, std::size_t n,
                 const double* vg, const double* vs, const double* vd,
                 FrameEval* out);

/// Corner-lane variant: one locate on grids[0]'s axes shared by every
/// grid, then a per-grid blend. Precondition (checked by the caller):
/// every grid shares grids[0]'s axes. out[m][k] is bit-identical to
/// eval_frames(*grids[m], ...).
void eval_frames_multi(const CharacterizationGrid* const* grids,
                       std::size_t grid_count, std::size_t n,
                       const double* vg, const double* vs, const double* vd,
                       FrameEval* const* out);

}  // namespace qwm::device::kernel
