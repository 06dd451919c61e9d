#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ditto::core {
namespace {

constexpr double kWeightFloor = 1e-3;
// Regret discount d = kDiscountBase^(1/N), N = cache size in objects.
constexpr double kDiscountBase = 0.005;

void Normalize(std::vector<double>& w) {
  double sum = 0.0;
  for (const double x : w) {
    sum += x;
  }
  if (sum <= 0.0) {
    for (double& x : w) {
      x = 1.0 / static_cast<double>(w.size());
    }
    return;
  }
  for (double& x : w) {
    x /= sum;
  }
  // Keep every expert revivable: floor the weight (LeCaR does the same), then
  // redistribute the remaining mass over the unfloored entries so the vector
  // is still a distribution — ChooseExpert samples it and the controller
  // returns it to clients, so an unnormalized floored vector would bias both.
  // Rescaling can push a near-floor entry below the floor, so iterate; each
  // pass floors at least one more entry, bounding the loop by w.size().
  for (size_t pass = 0; pass < w.size(); ++pass) {
    size_t floored = 0;
    double free_mass = 0.0;
    for (const double x : w) {
      if (x <= kWeightFloor) {
        floored++;
      } else {
        free_mass += x;
      }
    }
    if (floored == 0) {
      return;  // nothing clamped: the plain normalization already sums to 1
    }
    const double target_free = 1.0 - static_cast<double>(floored) * kWeightFloor;
    if (free_mass <= 0.0 || target_free <= 0.0) {
      break;  // degenerate (every expert at the floor): fall back to uniform
    }
    const double scale = target_free / free_mass;
    bool rescale_crossed_floor = false;
    for (double& x : w) {
      if (x <= kWeightFloor) {
        x = kWeightFloor;
      } else {
        x *= scale;
        rescale_crossed_floor = rescale_crossed_floor || x < kWeightFloor;
      }
    }
    if (!rescale_crossed_floor) {
      return;  // sum == floored * kWeightFloor + target_free == 1
    }
  }
  for (double& x : w) {
    x = 1.0 / static_cast<double>(w.size());
  }
}

void EncodeDoubles(const std::vector<double>& values, std::string* out) {
  out->resize(values.size() * 8);
  std::memcpy(out->data(), values.data(), out->size());
}


// Decodes a packed array of doubles. A payload whose length is not a
// multiple of 8 is malformed (trailing bytes would be silently dropped), so
// it decodes to an empty vector and callers treat it as a rejection.
std::vector<double> DecodeDoubles(std::string_view in) {
  // The empty check is not just an optimization: an empty payload (or view)
  // can carry a null data(), and memcpy's arguments are attributed nonnull
  // even for a zero-byte copy, so UBSan flags the unguarded call.
  if (in.empty() || in.size() % 8 != 0) {
    return {};
  }
  std::vector<double> out(in.size() / 8);
  std::memcpy(out.data(), in.data(), out.size() * 8);
  return out;
}

}  // namespace

AdaptiveController::AdaptiveController(dm::MemoryPool* pool, int num_experts)
    : weights_(num_experts, 1.0 / static_cast<double>(num_experts)) {
  pool->RegisterRpc(dm::kRpcUpdateWeights,
                    [this](std::string_view request, std::string* response) {
                      HandleUpdate(request, response);
                    });
}

void AdaptiveController::HandleUpdate(std::string_view request, std::string* response) {
  // Validate the payload size before decoding: a length that is not a whole
  // number of doubles is malformed on its face (DecodeDoubles would reject it
  // too, but the linter pins the explicit pre-decode check).
  if (request.size() % 8 != 0) {
    MutexLock lock(&mu_);
    rejected_++;
    return;
  }
  const std::vector<double> penalties = DecodeDoubles(request);
  MutexLock lock(&mu_);
  // A malformed payload (trailing bytes, wrong expert count) is rejected with
  // an empty response and must not perturb the weights: a client speaking a
  // different expert configuration would otherwise silently skew everyone.
  if (penalties.size() != weights_.size()) {
    rejected_++;
    return;
  }
  for (double p : penalties) {
    if (!std::isfinite(p)) {
      rejected_++;
      return;
    }
  }
  updates_++;
  for (size_t i = 0; i < weights_.size(); ++i) {
    // Penalties arrive pre-summed (the compression described in §4.3.2).
    weights_[i] *= std::exp(-penalties[i]);
  }
  Normalize(weights_);
  EncodeDoubles(weights_, response);
}

std::vector<double> AdaptiveController::weights() const {
  MutexLock lock(&mu_);
  return weights_;
}

AdaptiveState::AdaptiveState(const AdaptiveConfig& config, rdma::Verbs* verbs)
    : config_(config),
      verbs_(verbs),
      weights_(config.num_experts, 1.0 / static_cast<double>(config.num_experts)),
      pending_penalties_(config.num_experts, 0.0) {
  assert(config_.cache_size_objects > 0);
  log_discount_ = std::log(kDiscountBase) / static_cast<double>(config_.cache_size_objects);
}

int AdaptiveState::ChooseExpert(Rng& rng) const {
  double sum = 0.0;
  for (const double w : weights_) {
    sum += w;
  }
  double pick = rng.NextDouble() * sum;
  for (size_t i = 0; i < weights_.size(); ++i) {
    pick -= weights_[i];
    if (pick <= 0.0) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(weights_.size()) - 1;
}

double AdaptiveState::DiscountedPenalty(uint64_t age) const {
  // d^age with d = base^(1/N): older regrets are penalized less.
  return std::exp(log_discount_ * static_cast<double>(age));
}

void AdaptiveState::ApplyLocally(uint64_t bmap, double penalty) {
  for (int i = 0; i < config_.num_experts; ++i) {
    if ((bmap >> i) & 1) {
      weights_[i] *= std::exp(-config_.learning_rate * penalty);
      pending_penalties_[i] += config_.learning_rate * penalty;
    }
  }
  Normalize(weights_);
}

void AdaptiveState::OnRegret(uint64_t bmap, uint64_t age) {
  ApplyLocally(bmap, DiscountedPenalty(age));
  pending_count_++;
  const int batch = config_.lazy ? config_.penalty_batch : 1;
  if (pending_count_ >= batch) {
    Flush();
  }
}

void AdaptiveState::Flush() {
  if (pending_count_ == 0) {
    return;
  }
  EncodeDoubles(pending_penalties_, &rpc_request_);
  verbs_->Rpc(dm::kRpcUpdateWeights, rpc_request_, &rpc_response_);
  // Decode in place: the response is the controller's global weight vector.
  if (rpc_response_.size() == static_cast<size_t>(config_.num_experts) * 8) {
    std::memcpy(weights_.data(), rpc_response_.data(), rpc_response_.size());
  }
  std::fill(pending_penalties_.begin(), pending_penalties_.end(), 0.0);
  pending_count_ = 0;
  flushes_++;
}

}  // namespace ditto::core
