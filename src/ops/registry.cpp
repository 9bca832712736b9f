#include "ops/registry.hpp"

#include <mutex>
#include <utility>

namespace dlap {

OperationRegistry::OperationRegistry() { ops::register_builtin_families(*this); }

OperationRegistry& OperationRegistry::instance() {
  static OperationRegistry registry;
  return registry;
}

bool OperationRegistry::register_family(OperationDescriptor descriptor) {
  DLAP_REQUIRE(!descriptor.name.empty(),
               "OperationRegistry: descriptor needs a name");
  DLAP_REQUIRE(descriptor.variant_count >= 1,
               "OperationRegistry: '" + descriptor.name +
                   "' needs at least one variant");
  DLAP_REQUIRE(descriptor.size_axes == 1 || descriptor.size_axes == 2,
               "OperationRegistry: '" + descriptor.name +
                   "' size_axes must be 1 or 2");
  DLAP_REQUIRE(descriptor.run != nullptr,
               "OperationRegistry: '" + descriptor.name +
                   "' needs a run callback");
  DLAP_REQUIRE(descriptor.nominal_flops != nullptr,
               "OperationRegistry: '" + descriptor.name +
                   "' needs a flop count");

  std::unique_lock<std::shared_mutex> lock(mutex_);
  return families_.emplace(descriptor.name, std::move(descriptor)).second;
}

const OperationDescriptor* OperationRegistry::find(
    std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? nullptr : &it->second;
}

const OperationDescriptor& OperationRegistry::require(
    std::string_view name) const {
  const OperationDescriptor* descriptor = find(name);
  if (descriptor == nullptr) {
    throw lookup_error("unknown operation family: '" + std::string(name) +
                       "'");
  }
  return *descriptor;
}

std::vector<std::string> OperationRegistry::names() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, descriptor] : families_) out.push_back(name);
  return out;  // std::map iterates sorted
}

}  // namespace dlap
