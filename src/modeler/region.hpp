#pragma once
// Axis-aligned rectangular regions of the integer parameter space.
//
// Bounds are inclusive on both ends: the paper's parameter spaces are
// ranges like [8, 1024] sampled at multiples of a granularity (8), and a
// region [8,550]x[8,1024] covers every parameter point within.

#include <string>
#include <vector>

#include "common/types.hpp"

namespace dlap {

class Region {
 public:
  Region() = default;
  Region(std::vector<index_t> lo, std::vector<index_t> hi);

  [[nodiscard]] int dims() const noexcept {
    return static_cast<int>(lo_.size());
  }
  [[nodiscard]] index_t lo(int d) const { return lo_.at(d); }
  [[nodiscard]] index_t hi(int d) const { return hi_.at(d); }
  [[nodiscard]] const std::vector<index_t>& lo() const noexcept { return lo_; }
  [[nodiscard]] const std::vector<index_t>& hi() const noexcept { return hi_; }

  [[nodiscard]] index_t extent(int d) const { return hi_.at(d) - lo_.at(d); }

  [[nodiscard]] bool contains(const std::vector<index_t>& p) const;
  /// Containment with real-valued points (used by model evaluation).
  [[nodiscard]] bool contains(const std::vector<double>& p) const;

  [[nodiscard]] bool intersects(const Region& other) const;

  /// True when `other` lies entirely within this region (a stored model
  /// whose domain covers a request's domain can serve it).
  [[nodiscard]] bool covers(const Region& other) const;

  /// Number of lattice points at the given granularity (diagnostics).
  [[nodiscard]] double volume() const;

  /// L-infinity distance from p to the region (0 when inside).
  [[nodiscard]] double distance(const std::vector<double>& p) const;

  /// Projects p onto the region: each coordinate clamped into [lo, hi]
  /// (the model-evaluation policy for points no region contains).
  [[nodiscard]] std::vector<double> clamp(const std::vector<double>& p) const;

  /// Center point (real-valued).
  [[nodiscard]] std::vector<double> center() const;

  /// Splits at the midpoint of every dimension whose extent is > min_size,
  /// midpoints snapped to multiples of `granularity`. Returns the child
  /// regions (1 << #split_dims of them; the region itself if none split).
  [[nodiscard]] std::vector<Region> split(index_t min_size,
                                          index_t granularity) const;

  /// Grid of `points_per_dim` coordinates per dimension, spanning the
  /// region inclusively, snapped to multiples of `granularity` (at least
  /// the two endpoints). Returns the cartesian product.
  [[nodiscard]] std::vector<std::vector<index_t>> sample_grid(
      index_t points_per_dim, index_t granularity) const;

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const Region& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  std::vector<index_t> lo_;
  std::vector<index_t> hi_;
};

/// Snaps x to the nearest multiple of g within [lo, hi].
[[nodiscard]] index_t snap_to_grid(index_t x, index_t g, index_t lo,
                                   index_t hi);

/// Bounding box of two same-dimensional regions. Used to grow a stored
/// model's domain instead of replacing it when a new query needs points
/// outside it (prevents regeneration ping-pong between disjoint domains).
[[nodiscard]] Region region_union(const Region& a, const Region& b);

}  // namespace dlap
