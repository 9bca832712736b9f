#include "modeler/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

namespace dlap {

// ------------------------------------------------------------ RegionIndex
//
// Per-axis interval grid over the pieces' (integer, inclusive) bounds.
// Axis d's cell edges are the sorted unique {lo(d), hi(d) + 1} values of
// every piece, so within one cell every piece either contains the whole
// cell or none of it; each cell precomputes the winning piece (most
// accurate containing one, earliest on fit_error ties -- exactly the
// linear scan's rule). A lookup is one binary search per axis.
//
// The grid covers integer lattice points only (the predict path always
// evaluates at integer sizes). Non-integral or NaN coordinates fall back
// to the reference linear scan, so results stay bit-identical for every
// input.
struct PiecewiseModel::RegionIndex {
  std::vector<std::vector<index_t>> edges;  ///< per axis, sorted cell edges
  std::vector<std::size_t> stride;          ///< flattening strides
  std::vector<std::int32_t> winner;         ///< per cell; -1 = uncontained
  bool usable = false;  ///< false when the grid would be degenerate/huge

  static constexpr std::size_t kMaxCells = std::size_t{1} << 20;

  explicit RegionIndex(const std::vector<RegionModel>& pieces) {
    if (pieces.empty()) return;
    const int dims = pieces.front().region.dims();
    edges.resize(static_cast<std::size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      auto& e = edges[static_cast<std::size_t>(d)];
      e.reserve(2 * pieces.size());
      for (const RegionModel& p : pieces) {
        e.push_back(p.region.lo(d));
        e.push_back(p.region.hi(d) + 1);
      }
      std::sort(e.begin(), e.end());
      e.erase(std::unique(e.begin(), e.end()), e.end());
    }
    std::size_t cells = 1;
    stride.assign(static_cast<std::size_t>(dims), 0);
    for (int d = dims - 1; d >= 0; --d) {
      const std::size_t nd = edges[static_cast<std::size_t>(d)].size() - 1;
      stride[static_cast<std::size_t>(d)] = cells;
      if (nd == 0 || cells > kMaxCells / nd) return;  // overflow / too big
      cells *= nd;
    }
    winner.assign(cells, -1);
    // Rasterize piece by piece instead of scanning all pieces per cell:
    // each piece covers a contiguous sub-grid of cells (its bounds are
    // cell edges by construction), so walking only that sub-grid costs
    // O(sum of per-piece cells), not O(cells * pieces). Ascending piece
    // order with a strict fit_error comparison reproduces the linear
    // scan's tie-break (most accurate wins, earliest on ties).
    std::vector<std::size_t> lo_cell(static_cast<std::size_t>(dims));
    std::vector<std::size_t> hi_cell(static_cast<std::size_t>(dims));
    std::vector<std::size_t> idx(static_cast<std::size_t>(dims));
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      for (int d = 0; d < dims; ++d) {
        const auto& e = edges[static_cast<std::size_t>(d)];
        // lo and hi+1 are both edges; the piece spans the cells between.
        lo_cell[static_cast<std::size_t>(d)] = static_cast<std::size_t>(
            std::lower_bound(e.begin(), e.end(), pieces[p].region.lo(d)) -
            e.begin());
        hi_cell[static_cast<std::size_t>(d)] = static_cast<std::size_t>(
            std::lower_bound(e.begin(), e.end(),
                             pieces[p].region.hi(d) + 1) -
            e.begin());
      }
      idx = lo_cell;
      for (;;) {
        std::size_t flat = 0;
        for (int d = 0; d < dims; ++d) {
          flat += idx[static_cast<std::size_t>(d)] *
                  stride[static_cast<std::size_t>(d)];
        }
        std::int32_t& best = winner[flat];
        if (best < 0 || pieces[p].fit_error <
                            pieces[static_cast<std::size_t>(best)].fit_error) {
          best = static_cast<std::int32_t>(p);
        }
        // Odometer over the piece's cell sub-range (last axis fastest).
        int d = dims - 1;
        for (; d >= 0; --d) {
          auto& i = idx[static_cast<std::size_t>(d)];
          if (++i < hi_cell[static_cast<std::size_t>(d)]) break;
          i = lo_cell[static_cast<std::size_t>(d)];
        }
        if (d < 0) break;
      }
    }
    usable = true;
  }

  /// Looks the point up. Returns true when the index could decide (point
  /// is an in-range lattice point); *piece is then the winner or -1.
  [[nodiscard]] bool lookup(const std::vector<double>& point,
                            std::int32_t* piece) const {
    if (!usable) return false;
    std::size_t flat = 0;
    for (std::size_t d = 0; d < edges.size(); ++d) {
      const double x = point[d];
      if (!(x == std::floor(x))) return false;  // non-integral (or NaN)
      const auto& e = edges[d];
      if (x < static_cast<double>(e.front()) ||
          x >= static_cast<double>(e.back())) {
        *piece = -1;  // outside every piece's bound on this axis
        return true;
      }
      const index_t xi = static_cast<index_t>(x);
      const std::size_t cell = static_cast<std::size_t>(
          std::upper_bound(e.begin(), e.end(), xi) - e.begin() - 1);
      flat += cell * stride[d];
    }
    *piece = winner[flat];
    return true;
  }
};

PiecewiseModel::PiecewiseModel(Region domain, std::vector<RegionModel> pieces)
    : domain_(std::move(domain)), pieces_(std::move(pieces)) {
  DLAP_REQUIRE(!pieces_.empty(), "piecewise model needs at least one region");
  for (const RegionModel& p : pieces_) {
    DLAP_REQUIRE(p.region.dims() == domain_.dims(),
                 "piece dimensionality mismatch");
  }
}

PiecewiseModel::PiecewiseModel(const PiecewiseModel& other)
    : domain_(other.domain_), pieces_(other.pieces_) {}

PiecewiseModel::PiecewiseModel(PiecewiseModel&& other) noexcept
    : domain_(std::move(other.domain_)), pieces_(std::move(other.pieces_)) {
  // The index holds indices into pieces_, which just moved here -- taking
  // ownership of the already built index is safe and avoids a rebuild.
  index_.store(other.index_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
}

PiecewiseModel& PiecewiseModel::operator=(const PiecewiseModel& other) {
  if (this == &other) return *this;
  domain_ = other.domain_;
  pieces_ = other.pieces_;
  delete index_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

PiecewiseModel& PiecewiseModel::operator=(PiecewiseModel&& other) noexcept {
  if (this == &other) return *this;
  domain_ = std::move(other.domain_);
  pieces_ = std::move(other.pieces_);
  delete index_.exchange(
      other.index_.exchange(nullptr, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  return *this;
}

PiecewiseModel::~PiecewiseModel() {
  delete index_.load(std::memory_order_acquire);
}

const PiecewiseModel::RegionIndex& PiecewiseModel::index() const {
  const RegionIndex* idx = index_.load(std::memory_order_acquire);
  if (idx != nullptr) return *idx;
  auto built = std::make_unique<RegionIndex>(pieces_);
  const RegionIndex* expected = nullptr;
  if (index_.compare_exchange_strong(expected, built.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *built.release();
  }
  return *expected;  // another thread won the build race
}

const RegionModel* PiecewiseModel::containing_piece_linear(
    const std::vector<double>& point) const {
  const RegionModel* best = nullptr;
  for (const RegionModel& p : pieces_) {
    if (!p.region.contains(point)) continue;
    if (best == nullptr || p.fit_error < best->fit_error) best = &p;
  }
  return best;
}

const RegionModel* PiecewiseModel::containing_piece(
    const std::vector<double>& point) const {
  std::int32_t piece = -1;
  if (index().lookup(point, &piece)) {
    return piece < 0 ? nullptr : &pieces_[static_cast<std::size_t>(piece)];
  }
  return containing_piece_linear(point);
}

SampleStats PiecewiseModel::evaluate_projected(
    const std::vector<double>& point) const {
  // No containing region: project onto the nearest one (clamping policy).
  const RegionModel* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const RegionModel& p : pieces_) {
    const double d = p.region.distance(point);
    if (d < best_dist) {
      best_dist = d;
      best = &p;
    }
  }
  return best->poly.evaluate(best->region.clamp(point));
}

SampleStats PiecewiseModel::evaluate(const std::vector<double>& point) const {
  DLAP_REQUIRE(!pieces_.empty(), "evaluating an empty model");
  DLAP_REQUIRE(static_cast<int>(point.size()) == dims(),
               "point dimensionality mismatch");
  if (const RegionModel* best = containing_piece(point)) {
    return best->poly.evaluate(point);
  }
  return evaluate_projected(point);
}

SampleStats PiecewiseModel::evaluate(const std::vector<index_t>& point) const {
  std::vector<double> p(point.size());
  for (std::size_t i = 0; i < point.size(); ++i) {
    p[i] = static_cast<double>(point[i]);
  }
  return evaluate(p);
}

double PiecewiseModel::average_error() const {
  double wsum = 0.0;
  double esum = 0.0;
  for (const RegionModel& p : pieces_) {
    const double w = static_cast<double>(std::max<index_t>(p.samples_used, 1));
    wsum += w;
    esum += w * p.mean_error;
  }
  return (wsum > 0.0) ? esum / wsum : 0.0;
}

index_t PiecewiseModel::total_samples() const {
  index_t s = 0;
  for (const RegionModel& p : pieces_) s += p.samples_used;
  return s;
}

}  // namespace dlap
