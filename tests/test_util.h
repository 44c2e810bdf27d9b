#ifndef SGM_TESTS_TEST_UTIL_H_
#define SGM_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "core/check.h"
#include "data/stream.h"
#include "runtime/transport.h"

namespace sgm {

/// Deterministic stream whose per-cycle site vectors are scripted up front;
/// repeats the last frame once the script runs out. Lets protocol tests
/// construct exact crossing/non-crossing scenarios.
class ScriptedSource final : public StreamSource {
 public:
  /// `frames[t][i]` is site i's vector at cycle t.
  ScriptedSource(std::vector<std::vector<Vector>> frames, double step_norm)
      : frames_(std::move(frames)), step_norm_(step_norm) {
    SGM_CHECK(!frames_.empty());
  }

  std::string name() const override { return "scripted"; }
  int num_sites() const override {
    return static_cast<int>(frames_.front().size());
  }
  std::size_t dim() const override { return frames_.front().front().dim(); }

  void Advance(std::vector<Vector>* local_vectors) override {
    const std::size_t index =
        next_ < frames_.size() ? next_ : frames_.size() - 1;
    *local_vectors = frames_[index];
    ++next_;
  }

  double max_step_norm() const override { return step_norm_; }

 private:
  std::vector<std::vector<Vector>> frames_;
  double step_norm_;
  std::size_t next_ = 0;
};

/// A wire that decides each destination's fate on its own copy, as a
/// faulted SimTransport does: a broadcast is readdressed into one queued
/// copy per site, so the reliability layer above tracks, acks and
/// retransmits each. Over a plain InMemoryBus a broadcast is delivered
/// whole and draws no acks; tests of the tracked-broadcast path run over
/// this wire instead.
class PerSiteWire final : public Transport {
 public:
  explicit PerSiteWire(int num_sites) : num_sites_(num_sites) {}
  void Send(const RuntimeMessage& message) override {
    if (message.to != kBroadcastId) {
      bus_.Send(message);
      return;
    }
    for (int site = 0; site < num_sites_; ++site) {
      RuntimeMessage copy = message;
      copy.to = site;
      bus_.Send(copy);
    }
  }
  bool DeliversWhole(const RuntimeMessage& /*message*/) const override {
    return false;
  }
  bool empty() const { return bus_.empty(); }
  RuntimeMessage Pop() { return bus_.Pop(); }
  /// Pops everything queued, oldest first.
  std::vector<RuntimeMessage> PopAll() {
    std::vector<RuntimeMessage> popped;
    while (!bus_.empty()) popped.push_back(bus_.Pop());
    return popped;
  }

 private:
  InMemoryBus bus_;
  int num_sites_;
};

}  // namespace sgm

#endif  // SGM_TESTS_TEST_UTIL_H_
