#ifndef PCTAGG_CORE_SUMMARY_CACHE_H_
#define PCTAGG_CORE_SUMMARY_CACHE_H_

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/aggregate.h"
#include "engine/table.h"

namespace pctagg {

// How an entry's summary table was computed from its base table: the GROUP BY
// columns and the aggregate list handed to FusedAggregate. The append path
// replays the recipe over just the appended rows (the delta) and merges the
// result into the cached summary instead of rescanning the whole table.
struct SummaryRecipe {
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;  // ExprPtr members are shared, immutable
};

// True when every aggregate in the recipe is distributive under append-only
// writes (sum/count/count(*)/min/max): merging per-group delta values into
// the cached values yields exactly the recompute-from-scratch result. avg is
// not in the set — planners decompose it into sum+count when they want a
// mergeable entry; a cached avg column would need its inputs to re-derive.
bool RecipeIsMergeable(const SummaryRecipe& recipe);

// Materialized-summary cache across percentage queries, implementing the
// paper's future-work idea that "a set of percentage queries on the same
// table may be efficiently evaluated using shared summaries": the Fk-level
// aggregate of one query answers any later query asking for the same
// (table, grouping, aggregates) combination, no matter the strategy.
//
// Keys are built by the planner from the *generated SQL fragments* (base
// table, grouping columns, rendered aggregate list), so two textually
// different queries with the same aggregation share an entry.
//
// Entries store full table copies, bounded by a byte-budget LRU
// (set_capacity_bytes / SET summary_cache_mb): inserting past the budget
// evicts least-recently-looked-up entries first.
//
// Writes: wholesale table replacement goes through InvalidateTable (drop
// everything derived from the table). Appends go through BeginAppend /
// CompleteMerge: entries whose recipe is distributive are handed back to the
// caller for delta maintenance; the rest are dropped for lazy recompute.
class SummaryCache {
 public:
  SummaryCache() = default;

  SummaryCache(const SummaryCache&) = delete;
  SummaryCache& operator=(const SummaryCache&) = delete;

  // Canonical cache key for an aggregation step.
  static std::string KeyFor(const std::string& base_table,
                            const std::vector<std::string>& group_by,
                            const std::string& rendered_aggs);

  // The cached summary, or nullptr. Counts a hit/miss and refreshes the
  // entry's LRU position. The returned snapshot stays valid even if the
  // entry is concurrently replaced, invalidated or evicted (entries are
  // immutable once stored).
  std::shared_ptr<const Table> Lookup(const std::string& key);

  // Combined lookup + in-flight fill registration (single-flight): returns
  // true when the caller now *owns* the fill for `key` — counted as the one
  // miss — and must Insert the computed summary and then FinishFill(key), on
  // success and on error alike (ScopedFill below automates the release).
  // Returns false when the entry was present, either immediately or after
  // blocking on another thread's in-flight fill of the same key; `*out`
  // receives the summary (counted as a hit; callers that had to wait are
  // additionally counted in shared_fills()). A waiter whose owner failed —
  // or whose fill was rejected as stale — re-checks and claims ownership
  // itself, so a false return always carries a non-null *out. This is the
  // thundering-herd fix: N identical concurrent misses run one scan, not N.
  bool LookupOrBeginFill(const std::string& key,
                         std::shared_ptr<const Table>* out);

  // Releases the in-flight registration taken by LookupOrBeginFill and wakes
  // every waiter (each re-runs its lookup loop).
  void FinishFill(const std::string& key);

  // RAII release of fill ownership, so early error returns between
  // LookupOrBeginFill and Insert never strand waiters. A null cache is a
  // no-op (for callers that only conditionally own a fill).
  class ScopedFill {
   public:
    ScopedFill(SummaryCache* cache, std::string key)
        : cache_(cache), key_(std::move(key)) {}
    ~ScopedFill() {
      if (cache_ != nullptr) cache_->FinishFill(key_);
    }
    ScopedFill(const ScopedFill&) = delete;
    ScopedFill& operator=(const ScopedFill&) = delete;

   private:
    SummaryCache* cache_;
    std::string key_;
  };

  // The current invalidation generation of `base_table` (starts at 0, bumped
  // by InvalidateTable/Clear/BeginAppend). A filler reads this *before*
  // scanning the base table and hands it back to Insert, which rejects the
  // entry if the table changed in between — otherwise a slow fill racing a
  // ReplaceTable or an append would re-insert a summary of the old data
  // after the write ran (the check-then-insert race).
  uint64_t GenerationFor(const std::string& base_table) const;

  // Stores a copy of `summary` (replacing any previous entry) iff
  // `base_table` of the key is still at `generation`. Counts a rejected
  // stale insert in stale_inserts(). A non-null `recipe` marks the entry
  // maintainable by the append path (BeginAppend below); without one the
  // entry is dropped on any write to its base table.
  void Insert(const std::string& key, const Table& summary,
              uint64_t generation, const SummaryRecipe* recipe = nullptr);

  // Unconditional insert: shorthand for Insert at the current generation.
  void Insert(const std::string& key, const Table& summary);

  // Drops every entry derived from `base_table` and bumps its generation.
  void InvalidateTable(const std::string& base_table);

  // One cached summary checked out for delta maintenance during an append.
  // `summary` is the pre-append snapshot; `target_generation` is the
  // generation the append moved the table to, which CompleteMerge needs so a
  // merged result never lands after a *later* write invalidated it.
  struct PendingMerge {
    std::string key;
    std::shared_ptr<const Table> summary;
    SummaryRecipe recipe;
    uint64_t target_generation = 0;
  };

  // Starts delta maintenance for an append to `base_table`: bumps the
  // table's generation (so in-flight fills that scanned the pre-append rows
  // are rejected on Insert), removes every entry derived from the table, and
  // returns the ones whose recipe is mergeable for the caller to delta-merge
  // and hand back via CompleteMerge. Entries without a mergeable recipe are
  // dropped (recomputed lazily on next lookup); their count lands in
  // `*dropped` when non-null. Removing entries for the whole append window —
  // rather than patching them in place — keeps concurrent lookups from ever
  // seeing a summary that disagrees with the already-extended base table.
  std::vector<PendingMerge> BeginAppend(const std::string& base_table,
                                        size_t* dropped = nullptr);

  // One live mergeable entry derived from a base table, as seen by the
  // partial-lattice planner: answer a plain GROUP BY by rolling up the
  // smallest cached ancestor whose grouping subsumes the query's.
  struct AncestorCandidate {
    std::string key;
    std::shared_ptr<const Table> summary;
    SummaryRecipe recipe;
  };

  // Snapshot of every entry derived from `base_table` that carries a
  // mergeable recipe (distributive partials only — exactly the entries whose
  // rollup to a coarser grouping equals a recompute). Refreshes no LRU
  // positions and counts no hits; the caller reports a hit on the entry it
  // actually uses by calling Lookup on its key.
  std::vector<AncestorCandidate> MergeableEntriesFor(
      const std::string& base_table) const;

  // Re-inserts a delta-merged summary checked out by BeginAppend. The entry
  // lands iff the table is still at `pending.target_generation` and no
  // fresher fill claimed the key meanwhile (per-entry generations: a lookup
  // that missed during the append window may have recomputed from the
  // post-append table and inserted at the same generation — that fill is
  // equivalent, so it wins and the merge is discarded). Returns whether the
  // merged summary was stored.
  bool CompleteMerge(const PendingMerge& pending, const Table& merged);

  void Clear();

  // Byte budget for cached summaries (default 256 MiB). Shrinking evicts
  // immediately. A budget of 0 disables storage (every insert evicts
  // itself), which tests use to exercise the eviction path.
  void set_capacity_bytes(size_t bytes);
  size_t capacity_bytes() const;

  size_t size() const;
  size_t bytes() const;
  size_t hits() const;
  size_t misses() const;
  size_t stale_inserts() const;
  size_t evictions() const;
  // Lookups answered by waiting on another thread's in-flight fill instead
  // of running their own scan (a subset of hits()).
  size_t shared_fills() const;

 private:
  struct Entry {
    std::string base_table;  // lower-cased, for invalidation
    std::shared_ptr<const Table> summary;
    // Recipe for delta maintenance; group_by/aggs both empty => not
    // maintainable (the entry predates recipes or carries derived columns).
    SummaryRecipe recipe;
    bool has_recipe = false;
    // Table generation this entry was computed at. CompleteMerge compares
    // against it so a merge never clobbers a fresher fill of the same key.
    uint64_t generation = 0;
    size_t approx_bytes = 0;
    std::list<std::string>::iterator lru_pos;  // into lru_, front = hottest
  };

  // All four require mutex_ held.
  void EvictToBudgetLocked();
  void EraseLocked(std::map<std::string, Entry>::iterator it);
  void InsertLocked(const std::string& key, Entry entry);
  void PublishBytesLocked();

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // keys, most-recently-used first
  // Invalidation generation per lower-cased base table; absent means 0.
  std::map<std::string, uint64_t> generations_;
  // Keys whose fill some thread currently owns (LookupOrBeginFill returned
  // true and FinishFill has not run yet). Waiters sleep on fill_cv_.
  std::set<std::string> fills_in_flight_;
  std::condition_variable fill_cv_;
  size_t capacity_bytes_ = 256ull << 20;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t stale_inserts_ = 0;
  size_t evictions_ = 0;
  size_t shared_fills_ = 0;
};

}  // namespace pctagg

#endif  // PCTAGG_CORE_SUMMARY_CACHE_H_
