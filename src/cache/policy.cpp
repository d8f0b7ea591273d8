#include "cache/policy.h"

#include <sstream>
#include <stdexcept>

namespace sc::cache {

HybridKernel::HybridKernel(double e) : e_(e) {
  if (e < 0.0 || e > 1.0) {
    throw std::invalid_argument("HybridPolicy: e must be in [0, 1]");
  }
  std::ostringstream ss;
  ss << "Hybrid(e=" << e_ << ")";
  name_ = ss.str();
}

PbvKernel::PbvKernel(double e) : e_(e) {
  if (e < 0.0 || e > 1.0) {
    throw std::invalid_argument("PbvPolicy: e must be in [0, 1]");
  }
  if (e_ == 1.0) {
    name_ = "PB-V";
    return;
  }
  std::ostringstream ss;
  ss << "PB-V(e=" << e_ << ")";
  name_ = ss.str();
}

}  // namespace sc::cache
