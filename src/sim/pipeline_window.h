// PipelineWindow: the in-flight window every single op is issued through.
//
// Each op issued through CacheClient::ExecutePipelined executes at once (its
// memory effects land in issue order) and returns the virtual timestamp its
// verbs complete at. The issuer keeps up to depth completions in flight and
// retires them in issue order: retiring advances the client's virtual clock
// to the op's completion, a no-op when later work already moved the clock
// past it. Only verb waits overlap; execution order, hit rates and verb
// counts are those of blocking issue at every depth, and a window of one is
// blocking issue.
//
// A fixed ring of completion timestamps sized once at construction, so Admit,
// Push and the retire calls never allocate. The replay runner keeps one per
// client (depth = RunOptions::pipeline_depth, 1 by default); the RESP front
// end keeps one per connection (depth = net::Connection::kWindowOps).
#ifndef DITTO_SIM_PIPELINE_WINDOW_H_
#define DITTO_SIM_PIPELINE_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/clock.h"

namespace ditto::sim {

class PipelineWindow {
 public:
  explicit PipelineWindow(size_t depth)
      : depth_(std::max<size_t>(depth, 1)), ring_(std::make_unique<uint64_t[]>(depth_)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // ditto-lint: hot-path-begin(pipeline-window)
  // Retires the oldest in-flight ops until one more fits and returns the
  // next op's start timestamp: the clock after those retirements.
  uint64_t Admit(VirtualClock& clock) {
    while (size_ >= depth_) {
      RetireOldest(clock);
    }
    return clock.busy_ns();
  }

  // Records the completion timestamp of the op just issued. Call Admit
  // first: the window must have room.
  void Push(uint64_t complete_ns) {
    ring_[(head_ + size_) % depth_] = complete_ns;
    ++size_;
  }

  // Retires every in-flight op; the clock ends at the latest completion.
  void RetireAll(VirtualClock& clock) {
    while (size_ > 0) {
      RetireOldest(clock);
    }
  }

 private:
  void RetireOldest(VirtualClock& clock) {
    clock.AdvanceToNs(ring_[head_]);
    head_ = (head_ + 1) % depth_;
    --size_;
  }
  // ditto-lint: hot-path-end(pipeline-window)

  size_t depth_;
  std::unique_ptr<uint64_t[]> ring_;
  size_t head_ = 0;  // oldest in-flight op
  size_t size_ = 0;
};

}  // namespace ditto::sim

#endif  // DITTO_SIM_PIPELINE_WINDOW_H_
