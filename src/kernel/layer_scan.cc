#include "kernel/layer_scan.h"

#include <cstdlib>
#include <utility>

#include "util/stringf.h"

namespace crowdprice::kernel {

const KernelRegistry& KernelRegistry::Global() {
  static const KernelRegistry* registry = [] {
    auto* r = new KernelRegistry();
    // Ascending preference; the SIMD factories return nullptr on hosts
    // that cannot run them.
    std::unique_ptr<LayerScanKernel> probed[] = {
        MakeScalarKernel(), MakeNeonKernel(), MakeAvx2Kernel()};
    for (auto& kernel : probed) {
      if (kernel != nullptr) r->kernels_.push_back(std::move(kernel));
    }
    return r;
  }();
  return *registry;
}

Result<const LayerScanKernel*> KernelRegistry::Resolve(
    const std::string& name) const {
  std::string wanted = name;
  if (wanted.empty()) {
    const char* env = std::getenv("CROWDPRICE_KERNEL");
    if (env != nullptr && env[0] != '\0') wanted = env;
  }
  if (wanted.empty()) {
    return kernels_.back().get();
  }
  for (size_t i = kernels_.size(); i > 0; --i) {
    if (wanted == kernels_[i - 1]->name()) {
      return kernels_[i - 1].get();
    }
  }
  std::string available;
  for (const auto& k : kernels_) {
    if (!available.empty()) available += ", ";
    available += k->name();
  }
  return Status::NotFound(
      StringF("unknown kernel backend '%s'; available: %s", wanted.c_str(),
              available.c_str()));
}

std::vector<std::string> KernelRegistry::Available() const {
  std::vector<std::string> out;
  out.reserve(kernels_.size());
  for (const auto& k : kernels_) out.push_back(k->name());
  return out;
}

}  // namespace crowdprice::kernel
