#include "core/summary_cache.h"

#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace pctagg {

namespace {

// Process-wide mirrors of the per-cache counters, so the STATS verb sees
// cache behaviour without reaching into individual PctDatabase instances.
// Registration is hoisted into function-local statics (GetCounter locks).
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_hits_total",
      "Summary-cache lookups answered without a scan");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_misses_total", "Summary-cache lookups that missed");
  return c;
}
obs::Counter& StaleCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_stale_inserts_total",
      "Cache fills rejected because the base table changed mid-scan");
  return c;
}
obs::Counter& InvalidationCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_invalidations_total",
      "Base-table invalidations (table replaced or cache cleared)");
  return c;
}
obs::Counter& EvictionCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_evictions_total",
      "Summary-cache entries evicted by the byte-budget LRU");
  return c;
}
obs::Counter& SharedFillCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_cache_shared_fills_total",
      "Lookups answered by waiting on another thread's in-flight fill");
  return c;
}
obs::Gauge& BytesGauge() {
  static obs::Gauge& g = obs::GlobalMetrics().GetGauge(
      "pctagg_summary_cache_bytes",
      "Approximate bytes held by cached summary tables");
  return g;
}

// Approximate retained size of a cached summary: typed payload + validity
// per column, plus the dictionary pool of string columns. Dictionaries are
// shared with the base table when codes were adopted, so this over-counts in
// the worst case — acceptable for a budget, and summary tables re-interned
// by FusedAggregate own small dictionaries of just the group values.
size_t ApproxTableBytes(const Table& t) {
  size_t bytes = 0;
  for (size_t i = 0; i < t.num_columns(); ++i) {
    const Column& col = t.column(i);
    size_t width = col.type() == DataType::kString ? sizeof(uint32_t) : 8;
    bytes += col.size() * (width + 1);  // +1: validity byte
    if (col.dict() != nullptr) bytes += col.dict()->pool_bytes();
  }
  return bytes;
}

}  // namespace

bool RecipeIsMergeable(const SummaryRecipe& recipe) {
  if (recipe.aggs.empty()) return false;
  for (const AggSpec& a : recipe.aggs) {
    switch (a.func) {
      case AggFunc::kSum:
      case AggFunc::kCount:
      case AggFunc::kCountStar:
      case AggFunc::kMin:
      case AggFunc::kMax:
        break;
      case AggFunc::kAvg:
        return false;  // not distributive; planners decompose to sum+count
    }
  }
  return true;
}

std::string SummaryCache::KeyFor(const std::string& base_table,
                                 const std::vector<std::string>& group_by,
                                 const std::string& rendered_aggs) {
  std::vector<std::string> lowered;
  lowered.reserve(group_by.size());
  for (const std::string& g : group_by) lowered.push_back(ToLower(g));
  return ToLower(base_table) + "|" + Join(lowered, ",") + "|" + rendered_aggs;
}

std::shared_ptr<const Table> SummaryCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    MissCounter().Add();
    return nullptr;
  }
  ++hits_;
  HitCounter().Add();
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // refresh recency
  return it->second.summary;
}

bool SummaryCache::LookupOrBeginFill(const std::string& key,
                                     std::shared_ptr<const Table>* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      HitCounter().Add();
      if (waited) {
        ++shared_fills_;
        SharedFillCounter().Add();
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      *out = it->second.summary;
      return false;
    }
    if (fills_in_flight_.insert(key).second) {
      ++misses_;  // the whole herd counts as one miss: the owner's
      MissCounter().Add();
      return true;
    }
    // Another thread owns the fill; sleep until it finishes, then re-check.
    // If the owner failed (or its insert was rejected as stale), the entry is
    // still absent and this waiter claims ownership on the next iteration —
    // no caller ever leaves empty-handed because an owner errored out.
    waited = true;
    fill_cv_.wait(lock);
  }
}

void SummaryCache::FinishFill(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fills_in_flight_.erase(key);
  }
  fill_cv_.notify_all();
}

uint64_t SummaryCache::GenerationFor(const std::string& base_table) const {
  std::string lowered = ToLower(base_table);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = generations_.find(lowered);
  return it == generations_.end() ? 0 : it->second;
}

void SummaryCache::Insert(const std::string& key, const Table& summary,
                          uint64_t generation, const SummaryRecipe* recipe) {
  std::string base = ToLower(key.substr(0, key.find('|')));
  // Copying the table outside the lock keeps fills from serializing lookups.
  auto snapshot = std::make_shared<const Table>(summary);
  size_t approx = ApproxTableBytes(*snapshot);
  std::lock_guard<std::mutex> lock(mutex_);
  auto gen_it = generations_.find(base);
  uint64_t current = gen_it == generations_.end() ? 0 : gen_it->second;
  if (current != generation) {
    ++stale_inserts_;  // base table invalidated while the fill was computing
    StaleCounter().Add();
    return;
  }
  Entry entry;
  entry.base_table = std::move(base);
  entry.summary = std::move(snapshot);
  if (recipe != nullptr) {
    entry.recipe = *recipe;
    entry.has_recipe = true;
  }
  entry.generation = generation;
  entry.approx_bytes = approx;
  InsertLocked(key, std::move(entry));
}

void SummaryCache::Insert(const std::string& key, const Table& summary) {
  std::string base = ToLower(key.substr(0, key.find('|')));
  Insert(key, summary, GenerationFor(base));
}

void SummaryCache::InvalidateTable(const std::string& base_table) {
  std::string lowered = ToLower(base_table);
  InvalidationCounter().Add();
  std::lock_guard<std::mutex> lock(mutex_);
  ++generations_[lowered];
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.base_table == lowered) {
      auto next = std::next(it);
      EraseLocked(it);
      it = next;
    } else {
      ++it;
    }
  }
  PublishBytesLocked();
}

std::vector<SummaryCache::PendingMerge> SummaryCache::BeginAppend(
    const std::string& base_table, size_t* dropped) {
  std::string lowered = ToLower(base_table);
  std::vector<PendingMerge> pending;
  size_t dropped_count = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t target = ++generations_[lowered];
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.base_table != lowered) {
      ++it;
      continue;
    }
    Entry& e = it->second;
    if (e.has_recipe && RecipeIsMergeable(e.recipe)) {
      pending.push_back(PendingMerge{it->first, std::move(e.summary),
                                     std::move(e.recipe), target});
    } else {
      ++dropped_count;
    }
    auto next = std::next(it);
    EraseLocked(it);
    it = next;
  }
  PublishBytesLocked();
  if (dropped != nullptr) *dropped = dropped_count;
  return pending;
}

std::vector<SummaryCache::AncestorCandidate> SummaryCache::MergeableEntriesFor(
    const std::string& base_table) const {
  std::string lowered = ToLower(base_table);
  std::vector<AncestorCandidate> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    if (entry.base_table != lowered) continue;
    if (!entry.has_recipe || !RecipeIsMergeable(entry.recipe)) continue;
    out.push_back(AncestorCandidate{key, entry.summary, entry.recipe});
  }
  return out;
}

bool SummaryCache::CompleteMerge(const PendingMerge& pending,
                                 const Table& merged) {
  auto snapshot = std::make_shared<const Table>(merged);
  size_t approx = ApproxTableBytes(*snapshot);
  std::string base = ToLower(pending.key.substr(0, pending.key.find('|')));
  std::lock_guard<std::mutex> lock(mutex_);
  auto gen_it = generations_.find(base);
  uint64_t current = gen_it == generations_.end() ? 0 : gen_it->second;
  if (current != pending.target_generation) {
    ++stale_inserts_;  // a later write landed while the merge was computing
    StaleCounter().Add();
    return false;
  }
  auto existing = entries_.find(pending.key);
  if (existing != entries_.end() &&
      existing->second.generation >= pending.target_generation) {
    // A lookup that missed during the append window recomputed this entry
    // from the post-append table. That fill is equivalent; keep it.
    return false;
  }
  Entry entry;
  entry.base_table = std::move(base);
  entry.summary = std::move(snapshot);
  entry.recipe = pending.recipe;
  entry.has_recipe = true;
  entry.generation = pending.target_generation;
  entry.approx_bytes = approx;
  InsertLocked(pending.key, std::move(entry));
  return true;
}

void SummaryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) ++generations_[entry.base_table];
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  PublishBytesLocked();
}

void SummaryCache::set_capacity_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_bytes_ = bytes;
  EvictToBudgetLocked();
  PublishBytesLocked();
}

size_t SummaryCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_bytes_;
}

void SummaryCache::EvictToBudgetLocked() {
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    EraseLocked(it);
    ++evictions_;
    EvictionCounter().Add();
  }
}

void SummaryCache::EraseLocked(std::map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.approx_bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void SummaryCache::InsertLocked(const std::string& key, Entry entry) {
  auto existing = entries_.find(key);
  if (existing != entries_.end()) EraseLocked(existing);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  bytes_ += entry.approx_bytes;
  entries_.emplace(key, std::move(entry));
  EvictToBudgetLocked();
  PublishBytesLocked();
}

void SummaryCache::PublishBytesLocked() {
  BytesGauge().Set(static_cast<double>(bytes_));
}

size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t SummaryCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t SummaryCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

size_t SummaryCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t SummaryCache::stale_inserts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stale_inserts_;
}

size_t SummaryCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

size_t SummaryCache::shared_fills() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shared_fills_;
}

}  // namespace pctagg
