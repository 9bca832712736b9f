#pragma once
// The benchmark's query sets: typed rank/tune queries plus the exact
// HTTP bodies dlapd receives for them. Every set is drawn from a fixed
// seed, so the sets themselves (and the fixture covering them) are the
// same in every run; the run seed only orders the traffic drawn from
// them. All sizes and block sizes are multiples of 8, the modeler's
// sampling granularity, so every call lies inside a planned domain.

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.hpp"

namespace dlapbench {

struct Query {
  bool is_rank = true;
  dlap::RankQuery rank;  ///< when is_rank
  dlap::TuneQuery tune;  ///< otherwise
  std::string path;      ///< "/v1/rank" or "/v1/tune"
  std::string body;      ///< request body, system included

  /// The operations the query compiles: rank candidates or sweep points.
  [[nodiscard]] std::vector<dlap::OperationSpec> specs() const;
};

/// System A: the fixture every workload serves.
[[nodiscard]] dlap::SystemSpec system_a();
/// System B under a fresh backend key per generate cycle, so no model or
/// compiled trace of an earlier cycle is reused.
[[nodiscard]] dlap::SystemSpec system_b(int cycle);

/// serve_hot: a fixed set whose sweep points fit well inside dlapd's
/// 4096-entry trace cache. Also the warm-up set of every set-up.
[[nodiscard]] std::vector<Query> hot_set(const dlap::SystemSpec& system);

/// generate: the accuracy set answered for system B after each reload.
[[nodiscard]] std::vector<Query> accuracy_set(const dlap::SystemSpec& system);

/// Every operation the queries compile, deduplicated, in first-use order.
[[nodiscard]] std::vector<dlap::OperationSpec> specs_of(
    const std::vector<Query>& queries);

}  // namespace dlapbench
