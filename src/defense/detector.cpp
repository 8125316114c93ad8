#include "defense/detector.hpp"

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/rng.hpp"

namespace safelight::defense {

std::uint64_t probe_seed_of(const std::string& key) {
  Fingerprint fp;
  fp.mix_bytes(key.data(), key.size());
  return splitmix64(fp.value());
}

ScopedObservingHook::ScopedObservingHook(accel::OnnExecutor& executor,
                                         accel::ReadoutHook hook)
    : executor_(executor) {
  executor_.push_readout_hook(std::move(hook),
                              accel::ReadoutHookKind::kObserving);
  depth_ = executor_.readout_hook_count();
}

ScopedObservingHook::~ScopedObservingHook() {
  // Pop only when our own hook is still on top. If someone violated the
  // LIFO discipline while this scope was alive — cleared the stack via
  // set_readout_hook, or pushed above without popping — removing whatever
  // is on top now would silently uninstall *their* hook; and throwing out
  // of a destructor would terminate. Leaving the stack alone is the only
  // outcome that corrupts no one else's state.
  if (executor_.readout_hook_count() == depth_) executor_.pop_readout_hook();
}

DetectionResult Detector::make_result(double score, std::size_t probes,
                                      std::size_t first_flag_probe) const {
  DetectionResult result;
  result.detector = name();
  result.score = score;
  result.flagged = score > threshold_;
  result.probes = probes;
  result.first_flag_probe = result.flagged ? first_flag_probe : 0;
  return result;
}

}  // namespace safelight::defense
