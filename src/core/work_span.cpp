#include "core/work_span.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/bilinear.hpp"
#include "layout/tiled_layout.hpp"

namespace rla {

namespace {

struct Model {
  WorkSpanParams p;
  // Elements of one level-l block per operand shape.
  double ea(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_m * p.tile_k;
  }
  double eb(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_k * p.tile_n;
  }
  double ec(int l) const {
    return static_cast<double>(std::uint64_t{1} << (2 * l)) * p.tile_m * p.tile_n;
  }
  double leaf_flops() const {
    return 2.0 * p.tile_m * p.tile_k * p.tile_n;
  }

  WorkSpan standard(int l) const {
    if (l == 0) return {leaf_flops(), leaf_flops()};
    const WorkSpan child = standard(l - 1);
    const double e = ec(l - 1);
    if (p.standard_variant == StandardVariant::InPlace) {
      // Two barriers of four parallel products each.
      return {8.0 * child.work, 2.0 * child.span};
    }
    // Eight parallel products (four preceded by a temp zero), then four
    // parallel post-additions.
    WorkSpan r;
    r.work = 8.0 * child.work + 4.0 * e /*zeros*/ + 4.0 * e /*post adds*/;
    r.span = (e + child.span) + e;
    return r;
  }

  double elems(bilinear::Side side, int l) const {
    switch (side) {
      case bilinear::Side::A:
        return ea(l);
      case bilinear::Side::B:
        return eb(l);
      case bilinear::Side::C:
        break;
    }
    return ec(l);
  }

  /// An add program on level-(l-1) operands: every pass is work; each wave
  /// costs its longest task.
  WorkSpan program(const bilinear::Program& prog, int l) const {
    WorkSpan r;
    for (const bilinear::Wave& wave : prog) {
      double longest = 0.0;
      for (const bilinear::Task& task : wave) {
        double t = 0.0;
        for (const bilinear::Step& st : task) {
          t += static_cast<double>(bilinear::passes(st)) *
               elems(bilinear::side(st.dst), l);
        }
        r.work += t;
        longest = std::max(longest, t);
      }
      r.span += longest;
    }
    return r;
  }

  WorkSpan fast(int l, const bilinear::Row& row) const {
    if (l <= p.fast_cutoff_level) return standard(l);
    const WorkSpan child = fast(l - 1, row);
    const double a = ea(l - 1), b = eb(l - 1), c = ec(l - 1);
    WorkSpan r;
    if (p.fast_variant == FastVariant::SerialLowMem) {
      // Entirely sequential: span equals work. Each product's operands are
      // built from its term lists (a set of the first two terms, an acc per
      // further term); each product is zeroed and then accumulated once per
      // C quadrant that names it.
      double adds = 0.0;
      for (std::size_t i = 0; i < 7; ++i) {
        adds += static_cast<double>(row.a[i].size() - 1) * a +
                static_cast<double>(row.b[i].size() - 1) * b;
      }
      for (const bilinear::Sum& cq : row.c) adds += static_cast<double>(cq.size()) * c;
      r.work = 7.0 * child.work + 7.0 * c /*zeros*/ + adds;
      r.span = r.work;
      return r;
    }
    // Pre-add program; seven parallel (zero + product); post-add program.
    const WorkSpan pre = program(row.pre, l - 1), post = program(row.post, l - 1);
    r.work = 7.0 * child.work + pre.work + 7.0 * c + post.work;
    r.span = pre.span + (c + child.span) + post.span;
    return r;
  }
};

}  // namespace

WorkSpan analyze_work_span(const WorkSpanParams& params) {
  Model m{params};
  switch (params.algorithm) {
    case Algorithm::Standard:
      return m.standard(params.depth);
    case Algorithm::Strassen:
    case Algorithm::Winograd:
      return m.fast(params.depth, *bilinear::row_for(params.algorithm));
  }
  return {};
}

WorkSpan analyze_gemm(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                      const GemmConfig& cfg) {
  const std::array<std::uint64_t, 3> dims{m, k, n};
  const auto depth = cfg.forced_depth >= 0
                         ? std::optional<int>(cfg.forced_depth)
                         : common_depth(dims, cfg.tiles);
  if (!depth) {
    throw std::invalid_argument("analyze_gemm: shape requires splitting");
  }
  WorkSpanParams p;
  p.algorithm = cfg.algorithm;
  p.standard_variant = cfg.standard_variant;
  p.fast_variant = cfg.fast_variant;
  p.depth = *depth;
  p.fast_cutoff_level = cfg.fast_cutoff_level;
  const std::uint32_t side = std::uint32_t{1} << *depth;
  p.tile_m = (m + side - 1) / side;
  p.tile_k = (k + side - 1) / side;
  p.tile_n = (n + side - 1) / side;
  return analyze_work_span(p);
}

}  // namespace rla
