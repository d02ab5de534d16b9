#include "vss/soa.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "ff/batch.hpp"

namespace gfor14::vss {

// --- SliceBlock ------------------------------------------------------------

void SliceBlock::assign(std::size_t m, std::size_t coeffs_per_poly) {
  m_ = m;
  stride_ = coeffs_per_poly;
  data_.assign(m * coeffs_per_poly, Fld::zero());
}

Fld SliceBlock::eval_at(std::size_t k, Fld x) const {
  GFOR14_EXPECTS(k < m_);
  Fld acc = Fld::zero();
  for (std::size_t c = stride_; c-- > 0;) acc = acc * x + data_[c * m_ + k];
  return acc;
}

void SliceBlock::eval_range(Fld x, std::size_t base,
                            std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= m_);
  if (out.empty()) return;
  if (stride_ == 0) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  std::copy_n(plane(stride_ - 1).begin() + base, out.size(), out.begin());
  for (std::size_t c = stride_ - 1; c-- > 0;)
    ff::batch::horner_fold<64>(x, out, plane(c).subspan(base, out.size()));
}

void SliceBlock::load_kmajor(std::span<const Fld> payload) {
  GFOR14_EXPECTS(payload.size() == m_ * stride_);
  for (std::size_t c = 0; c < stride_; ++c) {
    Fld* dst = data_.data() + c * m_;
    for (std::size_t k = 0; k < m_; ++k) dst[k] = payload[k * stride_ + c];
  }
}

void SliceBlock::store_kmajor(std::span<Fld> payload) const {
  GFOR14_EXPECTS(payload.size() == m_ * stride_);
  for (std::size_t c = 0; c < stride_; ++c) {
    const Fld* src = data_.data() + c * m_;
    for (std::size_t k = 0; k < m_; ++k) payload[k * stride_ + c] = src[k];
  }
}

void SliceBlock::set_poly(std::size_t k, const Poly& p) {
  GFOR14_EXPECTS(k < m_);
  const auto& coeffs = p.coeffs();
  for (std::size_t c = 0; c < stride_; ++c)
    data_[c * m_ + k] = c < coeffs.size() ? coeffs[c] : Fld::zero();
}

// --- BivariateBatch --------------------------------------------------------

void BivariateBatch::build(std::span<const SymmetricBivariate> polys,
                           std::size_t deg) {
  m_ = polys.size();
  dp1_ = deg + 1;
  data_.assign(dp1_ * dp1_ * m_, Fld::zero());
  for (std::size_t k = 0; k < m_; ++k) {
    GFOR14_EXPECTS(polys[k].degree() == deg);
    for (std::size_t i = 0; i < dp1_; ++i)
      for (std::size_t j = 0; j < dp1_; ++j)
        data_[(i * dp1_ + j) * m_ + k] = polys[k].coeff(i, j);
  }
}

void BivariateBatch::slices_at(Fld y0, SliceBlock& out) const {
  out.assign(m_, dp1_);
  for (std::size_t i = 0; i < dp1_; ++i) {
    const std::span<Fld> row = out.plane(i);
    std::copy(plane(i, dp1_ - 1).begin(), plane(i, dp1_ - 1).end(),
              row.begin());
    for (std::size_t j = dp1_ - 1; j-- > 0;)
      ff::batch::horner_fold<64>(y0, row, plane(i, j));
  }
}

// --- SharePool -------------------------------------------------------------

void SharePool::configure(std::size_t coeffs_per_poly) {
  if (planes_.empty()) planes_.resize(coeffs_per_poly);
  GFOR14_EXPECTS(planes_.size() == coeffs_per_poly);
}

std::size_t SharePool::append_zero(std::size_t m) {
  const std::size_t base = count_;
  count_ += m;
  for (auto& p : planes_) p.resize(count_, Fld::zero());
  return base;
}

void SharePool::set_column(std::size_t k, std::span<const Fld> coeffs) {
  GFOR14_EXPECTS(k < count_);
  for (std::size_t c = 0; c < planes_.size(); ++c)
    planes_[c][k] = c < coeffs.size() ? coeffs[c] : Fld::zero();
}

Fld SharePool::eval_one(std::size_t k, Fld alpha) const {
  GFOR14_EXPECTS(k < count_);
  Fld acc = Fld::zero();
  for (std::size_t c = planes_.size(); c-- > 0;)
    acc = acc * alpha + planes_[c][k];
  return acc;
}

void SharePool::eval_range(Fld alpha, std::size_t base,
                           std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= count_);
  if (out.empty()) return;
  if (planes_.empty()) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  const std::size_t top = planes_.size() - 1;
  std::copy_n(planes_[top].begin() + base, out.size(), out.begin());
  for (std::size_t c = top; c-- > 0;)
    ff::batch::horner_fold<64>(
        alpha, out,
        std::span<const Fld>(planes_[c].data() + base, out.size()));
}

}  // namespace gfor14::vss
