#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MixPercentile(const std::vector<double>& values,
                     const std::vector<int>& strata,
                     const std::vector<double>& share, double p) {
  std::vector<double> count(share.size(), 0.0);
  auto share_of = [&](int s) {
    return s >= 0 && static_cast<size_t>(s) < share.size() ? share[s] : 0.0;
  };
  for (size_t i = 0; i < values.size(); ++i) {
    if (share_of(strata[i]) > 0) count[strata[i]] += 1;
  }
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  double total = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double w = share_of(strata[i]);
    if (w <= 0) continue;
    weighted.emplace_back(values[i], w / count[strata[i]]);
    total += w / count[strata[i]];
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  p = std::clamp(p, 0.0, 1.0);
  double before = 0, prev_pos = 0, prev_value = weighted[0].first;
  for (size_t i = 0; i < weighted.size(); ++i) {
    const double pos = (before + weighted[i].second / 2) / total;
    if (p <= pos) {
      if (i == 0) return weighted[0].first;
      const double frac = (p - prev_pos) / (pos - prev_pos);
      return prev_value + (weighted[i].first - prev_value) * frac;
    }
    before += weighted[i].second;
    prev_pos = pos;
    prev_value = weighted[i].first;
  }
  return weighted.back().first;
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

std::vector<double> OpenLoopSchedule(double rate_per_s, double seconds,
                                     uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> offset(0.0, 1.0);
  const size_t n = static_cast<size_t>(std::floor(rate_per_s * seconds));
  for (size_t i = 0; i < n; ++i) {
    due.push_back((static_cast<double>(i) + offset(gen)) * 1000.0 / rate_per_s);
  }
  return due;
}

BlockMix::BlockMix(std::vector<int> weights, uint64_t seed)
    : weights_(std::move(weights)), gen_(seed) {
  for (size_t i = 0; i < weights_.size(); ++i) {
    block_.insert(block_.end(), static_cast<size_t>(std::max(weights_[i], 0)),
                  static_cast<int>(i));
  }
  pos_ = block_.size();
}

int BlockMix::Next() {
  if (block_.empty()) return -1;
  if (pos_ == block_.size()) {
    std::shuffle(block_.begin(), block_.end(), gen_);
    pos_ = 0;
  }
  return block_[pos_++];
}

std::vector<double> SelfTimes(const std::vector<Span>& spans,
                              double* clamped_ms) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  double clamped = 0;
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double covered = 0;
    // Children inside the parent's interval: union of their clipped
    // intervals. Children outside it (replays): their full duration.
    std::vector<std::pair<double, double>> inside;
    for (size_t c : children[i]) {
      const Span& k = spans[c];
      if (k.start_ms >= s.start_ms && k.end_ms <= s.end_ms) {
        inside.emplace_back(k.start_ms, k.end_ms);
      } else if (k.end_ms <= s.start_ms || k.start_ms >= s.end_ms) {
        covered += k.DurationMs();
      } else {
        inside.emplace_back(std::max(k.start_ms, s.start_ms),
                            std::min(k.end_ms, s.end_ms));
      }
    }
    std::sort(inside.begin(), inside.end());
    double run_start = 0, run_end = -1;
    bool open = false;
    for (const auto& [a, b] : inside) {
      if (!open || a > run_end) {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open) covered += run_end - run_start;
    const double raw = s.DurationMs() - covered;
    if (raw < 0) clamped -= raw;
    self[i] = std::max(raw, 0.0);
  }
  if (clamped_ms != nullptr) *clamped_ms = clamped;
  return self;
}

}  // namespace perfbench
