// Wide span kernels over GF(2^64): the batch layer of the field stack.
//
// The VSS engine's structure-of-arrays hot path (vss/soa.hpp) works on
// contiguous coefficient planes — thousands of field elements multiplied by
// ONE scalar at a time. That shape admits a kernel the element-at-a-time
// `ff::dot`/`ff::axpy` path cannot express: a 128/256-bit vectorized
// carry-less multiply. PCLMULQDQ processes two GF(2^64) elements per
// iteration (VPCLMULQDQ four), with the modular reduction folded inside the
// vector registers — two extra clmuls per lane instead of a scalar fold.
// Only the protocol field GF(2^64) has span kernels; without hardware clmul
// the wide path runs the scalar loops.
//
// Dispatch mirrors ff/kernel.hpp: resolved once from the environment
// (GFOR14_FF_BATCH = auto | wide | scalar), overridable from tests with
// set_span_kernel(), counted in the metrics registry as
// ff.batch.kernel.<name>. The SCALAR path is ff::axpy / ff::dot from
// ff/ops.hpp plus an element-at-a-time Horner loop — it is kept as the
// differential oracle, and every wide kernel must agree with it bit-for-bit
// on every input (GF(2^k) arithmetic is exact, so this is equality, not
// tolerance). Forcing GFOR14_FF_KERNEL=bitloop or soft additionally
// degrades the wide path to the scalar loops, so the full oracle stack
// remains reachable end-to-end.
//
// All entry points are safe on empty spans (no data() dereference).
#pragma once

#include <span>

#include "ff/gf2e.hpp"

namespace gfor14::ff {

enum class SpanKernel {
  kScalar,  ///< element-at-a-time loops (differential oracle)
  kWide,    ///< vectorized clmul spans
};

/// Stable lowercase name ("scalar", "wide").
const char* span_kernel_name(SpanKernel k);

/// The span kernel currently answering batch calls; resolves on first use
/// from GFOR14_FF_BATCH (auto | wide | scalar; default wide).
SpanKernel active_span_kernel();
const char* active_span_kernel_name();

/// Forces a span kernel (tests/benches). Always succeeds: the wide path
/// degrades internally to whatever the active scalar kernel allows.
bool set_span_kernel(SpanKernel k);

/// Drops any override and re-resolves from GFOR14_FF_BATCH.
void reset_span_kernel();

namespace batch {

/// y[i] += c * x[i] over a contiguous span. Identical results to ff::axpy.
template <unsigned Bits>
  requires(Bits == 64)
void axpy(GF2E<Bits> c, std::span<const GF2E<Bits>> x,
          std::span<GF2E<Bits>> y);

/// Inner product sum_i a[i]*b[i]. Identical results to ff::dot.
template <unsigned Bits>
  requires(Bits == 64)
GF2E<Bits> dot(std::span<const GF2E<Bits>> a, std::span<const GF2E<Bits>> b);

/// y[i] = c * y[i] in place.
template <unsigned Bits>
  requires(Bits == 64)
void scale(GF2E<Bits> c, std::span<GF2E<Bits>> y);

/// One Horner step across a batch: acc[i] = x * acc[i] + plane[i].
/// `acc` and `plane` must not alias; plane may be empty (pure scale step).
template <unsigned Bits>
  requires(Bits == 64)
void horner_fold(GF2E<Bits> x, std::span<GF2E<Bits>> acc,
                 std::span<const GF2E<Bits>> plane);

extern template void axpy<64>(F64, std::span<const F64>, std::span<F64>);
extern template F64 dot<64>(std::span<const F64>, std::span<const F64>);
extern template void scale<64>(F64, std::span<F64>);
extern template void horner_fold<64>(F64, std::span<F64>,
                                     std::span<const F64>);

}  // namespace batch
}  // namespace gfor14::ff
