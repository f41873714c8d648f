#include "engine/pipeline.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/cpu.h"
#include "engine/agg_internal.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pctagg {

namespace {

using aggdetail::AccPlan;
using aggdetail::AggState;

constexpr uint32_t kEmpty = UINT32_MAX;

// ---------------------------------------------------------------------------
// Inline key table: the keying tier for <= 2 group columns. Instead of
// packing tag+payload bytes into a key buffer and re-reading them through the
// generic KeyMap arena, each key is two 64-bit payload words (int64 bits,
// float64 bits, or the 4-byte dictionary code) plus a null-flag byte held in
// registers straight off the column arrays. Equality over (payloads, nulls)
// is exactly packed-key equality — per column, both NULL or both valid with
// identical payload bits; the column types are fixed per query so no type
// tag is needed — which keeps group identity, and therefore results,
// identical to the packed tier's.
// ---------------------------------------------------------------------------

struct GroupColRef {
  DataType type;
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint32_t* codes = nullptr;
};

inline GroupColRef MakeGroupColRef(const Column& c) {
  GroupColRef r;
  r.type = c.type();
  r.validity = c.validity().data();
  switch (c.type()) {
    case DataType::kInt64:
      r.i64 = c.int64_data().data();
      break;
    case DataType::kFloat64:
      r.f64 = c.float64_data().data();
      break;
    case DataType::kString:
      r.codes = c.codes().data();
      break;
  }
  return r;
}

inline uint64_t PayloadAt(const GroupColRef& c, size_t row) {
  switch (c.type) {
    case DataType::kInt64:
      return static_cast<uint64_t>(c.i64[row]);
    case DataType::kFloat64: {
      uint64_t bits;
      std::memcpy(&bits, &c.f64[row], 8);
      return bits;
    }
    case DataType::kString:
      return c.codes[row];
  }
  return 0;
}

struct InlineKeyTable {
  std::vector<uint64_t> slot_hash;
  std::vector<uint32_t> slot_id;  // kEmpty marks a free slot
  std::vector<uint64_t> k0, k1;   // dense payload words, by id
  std::vector<uint8_t> kn;        // dense null-flag bytes, by id
  size_t mask = 0;

  size_t size() const { return k0.size(); }
  size_t slots() const { return slot_id.size(); }

  static uint64_t HashKey(uint64_t a, uint64_t b, uint8_t nb) {
    uint64_t h = (a ^ 0x9e3779b97f4a7c15ULL) * 0x2545f4914f6cdd1dULL;
    h ^= (b + 0xc2b2ae3d27d4eb4fULL) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(nb) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    return h;
  }

  void Grow(size_t min_slots) {
    size_t n = 64;
    while (n < min_slots) n <<= 1;
    if (!slot_id.empty() && n <= slot_id.size()) return;
    std::vector<uint64_t> old_hash = std::move(slot_hash);
    std::vector<uint32_t> old_id = std::move(slot_id);
    slot_hash.assign(n, 0);
    slot_id.assign(n, kEmpty);
    mask = n - 1;
    for (size_t s = 0; s < old_id.size(); ++s) {
      if (old_id[s] == kEmpty) continue;
      size_t idx = old_hash[s] & mask;
      while (slot_id[idx] != kEmpty) idx = (idx + 1) & mask;
      slot_hash[idx] = old_hash[s];
      slot_id[idx] = old_id[s];
    }
  }

  uint32_t GetOrAdd(uint64_t a, uint64_t b, uint8_t nb, size_t row,
                    std::vector<size_t>* first_row) {
    if (slot_id.empty()) Grow(64);
    const uint64_t h = HashKey(a, b, nb);
    size_t idx = h & mask;
    for (;;) {
      const uint32_t slot = slot_id[idx];
      if (slot == kEmpty) {
        const uint32_t id = static_cast<uint32_t>(k0.size());
        k0.push_back(a);
        k1.push_back(b);
        kn.push_back(nb);
        slot_hash[idx] = h;
        slot_id[idx] = id;
        first_row->push_back(row);
        if ((static_cast<size_t>(id) + 1) * 2 >= slot_id.size()) {
          Grow(slot_id.size() * 2);
        }
        return id;
      }
      if (slot_hash[idx] == h && k0[slot] == a && k1[slot] == b &&
          kn[slot] == nb) {
        if (row < (*first_row)[slot]) (*first_row)[slot] = row;
        return slot;
      }
      idx = (idx + 1) & mask;
    }
  }
};

// ---------------------------------------------------------------------------
// Vectorized divide.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
__attribute__((target("avx2"))) void DivideLanesAvx2(const double* a,
                                                     const double* b,
                                                     double* r, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(r + i, _mm256_div_pd(_mm256_loadu_pd(a + i),
                                          _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) r[i] = a[i] / b[i];
}
#endif

void DivideLanes(const double* a, const double* b, double* r, size_t n) {
#if defined(__x86_64__)
  if (CpuHasAvx2() && SimdEnabled()) {
    DivideLanesAvx2(a, b, r, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) r[i] = a[i] / b[i];
}

bool IsNumeric(const Column& c) {
  return c.type() == DataType::kInt64 || c.type() == DataType::kFloat64;
}

enum class KeyTier { kDirectDict, kInline, kPacked };

// One worker's thread-local partial aggregation state. Which keying
// structure is live depends on the tier picked for the whole aggregation.
struct AggPartial {
  InlineKeyTable itab;                             // kInline
  KeyMap groups;                                   // kPacked
  std::vector<std::vector<AggState>> spec_states;  // [agg][local group]
  std::vector<size_t> first_row;      // min input row per local group
  std::vector<uint32_t> gid;          // morsel scratch: group id per kept row
  std::vector<uint32_t> sel;          // morsel scratch: kept absolute rows
  std::vector<uint8_t> where_buf;     // morsel scratch: predicate bytes
  std::vector<char> key_buf;          // morsel scratch: packed keys
  std::vector<int64_t> lane_scratch;  // morsel scratch: unrolled lanes
  size_t kept = 0;                    // rows the WHERE kept

  // Grows every spec's accumulator column to `groups` default states.
  void Extend(size_t groups) {
    for (std::vector<AggState>& sc : spec_states) {
      if (sc.size() < groups) sc.resize(groups);
    }
  }
};

}  // namespace

Result<Table> FusedAggregate(const Table& input, const ExprPtr& where,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs, size_t dop) {
  // WHERE never copies rows: the predicate is bound (type-checked and
  // compiled) once here, and each morsel's worker evaluates it into that
  // morsel's selection list, so the filter runs inside the parallel scan.
  // Its trace node sits under the aggregate whose time includes it.
  const size_t n = input.num_rows();
  obs::OpScope op("aggregate");
  std::optional<PredicateMask> pred;
  obs::TraceNode* filter_node = nullptr;
  if (where != nullptr) {
    if (op.active()) filter_node = obs::CurrentOp()->AddChild("filter");
    obs::ScopedTraceNode bind_scope(filter_node);
    PCTAGG_ASSIGN_OR_RETURN(pred, PredicateMask::Bind(*where, input));
  }
  PCTAGG_ASSIGN_OR_RETURN(aggdetail::AggBindings bind,
                          aggdetail::BindAggs(input, group_by, aggs));
  const std::vector<size_t>& group_idx = bind.group_idx;
  const std::vector<AccPlan>& acc_plans = bind.acc_plans;

  if (dop == 0) dop = CurrentDop();
  MorselPlan plan = MorselPlan::Auto(n, dop);

  // Keying tier. Direct-dict: grouping by ONE dictionary-encoded string
  // column whose dictionary is small means the code already IS a dense group
  // id — no hashing, no key bytes, no probe; each worker accumulates straight
  // into arrays of dict_size + 1 slots (the extra slot takes NULL rows). The
  // cap bounds the per-worker footprint for dictionaries much larger than the
  // actual group count (a shared dictionary can hold codes this column never
  // uses). The inline table covers up to two group columns of any type;
  // wider keys take the packed KeyMap batch path.
  constexpr size_t kDirectDictMaxSlots = 4096;
  KeyTier tier = group_idx.size() <= 2 ? KeyTier::kInline : KeyTier::kPacked;
  const uint32_t* direct_codes = nullptr;
  const uint8_t* direct_validity = nullptr;
  size_t direct_slots = 0;
  if (group_idx.size() == 1 &&
      input.column(group_idx[0]).type() == DataType::kString) {
    const Column& gc = input.column(group_idx[0]);
    if (gc.dict()->size() + 1 <= kDirectDictMaxSlots) {
      direct_codes = gc.codes().data();
      direct_validity = gc.validity().data();
      direct_slots = gc.dict()->size() + 1;
      tier = KeyTier::kDirectDict;
    }
  }
  std::vector<GroupColRef> group_refs;
  if (tier == KeyTier::kInline) {
    group_refs.reserve(group_idx.size());
    for (size_t gi : group_idx) {
      group_refs.push_back(MakeGroupColRef(input.column(gi)));
    }
  }
  const KeyEncoder encoder(input, group_idx);

  // The unrolled integer lanes kick in for unfiltered morsels over small
  // group domains; they are bit-identical to the scalar loop (integer
  // addition) but sit behind the runtime SIMD switch so the scalar kernels
  // stay exercised under PCTAGG_DISABLE_SIMD=1.
  const bool lanes_enabled = SimdEnabled();
  constexpr size_t kLaneMaxGroups = 4096;
  constexpr size_t kLaneMinRows = 512;

  std::vector<AggPartial> partials(plan.num_workers);
  for (AggPartial& p : partials) {
    p.spec_states.resize(aggs.size());
    if (tier == KeyTier::kDirectDict) {
      p.Extend(direct_slots);
      p.first_row.assign(direct_slots, SIZE_MAX);
    }
  }
  RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    AggPartial& p = partials[worker];
    const size_t span = end - begin;
    if (p.gid.size() < span) p.gid.resize(span);

    // Filter stage: this morsel's rows where the WHERE is TRUE.
    const uint32_t* rows = nullptr;
    size_t count = span;
    if (pred.has_value()) {
      if (p.sel.size() < span) p.sel.resize(span);
      count = pred->Select(begin, end, p.sel.data(), &p.where_buf);
      p.kept += count;
      rows = p.sel.data();
      if (count == 0) return;
    }

    // Keying stage: local group id per kept row.
    switch (tier) {
      case KeyTier::kDirectDict: {
        const uint32_t null_slot = static_cast<uint32_t>(direct_slots - 1);
        for (size_t i = 0; i < count; ++i) {
          const size_t row = rows != nullptr ? rows[i] : begin + i;
          const uint32_t g =
              direct_validity[row] ? direct_codes[row] : null_slot;
          if (row < p.first_row[g]) p.first_row[g] = row;
          p.gid[i] = g;
        }
        break;
      }
      case KeyTier::kInline: {
        const size_t ncols = group_refs.size();
        const GroupColRef* c0 = ncols > 0 ? &group_refs[0] : nullptr;
        const GroupColRef* c1 = ncols > 1 ? &group_refs[1] : nullptr;
        for (size_t i = 0; i < count; ++i) {
          const size_t row = rows != nullptr ? rows[i] : begin + i;
          uint64_t a = 0, b = 0;
          uint8_t nb = 0;
          if (c0 != nullptr) {
            if (c0->validity[row] != 0) {
              a = PayloadAt(*c0, row);
            } else {
              nb |= 1;
            }
          }
          if (c1 != nullptr) {
            if (c1->validity[row] != 0) {
              b = PayloadAt(*c1, row);
            } else {
              nb |= 2;
            }
          }
          p.gid[i] = p.itab.GetOrAdd(a, b, nb, row, &p.first_row);
        }
        p.Extend(p.itab.size());
        break;
      }
      case KeyTier::kPacked: {
        // Every column type encodes at a fixed width, so the whole morsel is
        // encoded column-at-a-time into a stride-constant buffer and keyed
        // through the stride-specialized batch probe.
        const size_t stride = encoder.fixed_width();
        if (p.key_buf.size() < count * stride) {
          p.key_buf.resize(count * stride);
        }
        if (rows == nullptr) {
          encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
          p.groups.GetOrAddFixedBatch(p.key_buf.data(), stride, count, begin,
                                      p.gid.data(), &p.first_row);
        } else {
          encoder.EncodeFixedRows(rows, count, p.key_buf.data());
          p.groups.GetOrAddFixedBatchRows(p.key_buf.data(), stride, count,
                                          rows, p.gid.data(), &p.first_row);
        }
        p.Extend(p.groups.size());
        break;
      }
    }

    // Accumulation stage.
    for (size_t a = 0; a < acc_plans.size(); ++a) {
      std::vector<AggState>& col = p.spec_states[a];
      if (rows == nullptr) {
        if (lanes_enabled && col.size() <= kLaneMaxGroups &&
            span >= kLaneMinRows &&
            aggdetail::AccumulateMorselUnrolled(acc_plans[a], p.gid, begin,
                                                end, col.size(), col,
                                                p.lane_scratch)) {
          continue;
        }
        aggdetail::AccumulateMorsel(acc_plans[a], p.gid, begin, end, col);
      } else {
        aggdetail::AccumulateRows(acc_plans[a], p.gid.data(), rows, count,
                                  col);
      }
    }
  });

  // Merge phase: the per-worker partials are combined once, one merge per
  // key tier, each folding the partials in worker order. Output order is the
  // global first-seen order (each group's minimum input row) at every dop
  // and in every tier.
  const size_t num_specs = aggs.size();
  std::vector<std::vector<AggState>> states;
  std::vector<size_t> representative_row;
  AggPartial& p0 = partials[0];
  std::vector<uint32_t> order;  // p0's group ids in emission order
  switch (tier) {
    case KeyTier::kDirectDict:
      // Elementwise into partial 0. Code order is NOT first-seen order in
      // general (a derived table can hold a shared dictionary's codes in any
      // row order), so the slots that saw rows are always sorted.
      for (size_t w = 1; w < partials.size(); ++w) {
        const AggPartial& pw = partials[w];
        for (size_t g = 0; g < direct_slots; ++g) {
          if (pw.first_row[g] == SIZE_MAX) continue;
          for (size_t a = 0; a < num_specs; ++a) {
            aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][g]);
          }
          p0.first_row[g] = std::min(p0.first_row[g], pw.first_row[g]);
        }
      }
      for (size_t g = 0; g < direct_slots; ++g) {
        if (p0.first_row[g] != SIZE_MAX) {
          order.push_back(static_cast<uint32_t>(g));
        }
      }
      break;
    case KeyTier::kInline:
      // Serially into partial 0's inline table.
      for (size_t w = 1; w < partials.size(); ++w) {
        const AggPartial& pw = partials[w];
        for (size_t id = 0; id < pw.itab.size(); ++id) {
          const uint32_t g = p0.itab.GetOrAdd(pw.itab.k0[id], pw.itab.k1[id],
                                              pw.itab.kn[id], pw.first_row[id],
                                              &p0.first_row);
          p0.Extend(p0.itab.size());
          for (size_t a = 0; a < num_specs; ++a) {
            aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][id]);
          }
        }
      }
      order.resize(p0.itab.size());
      std::iota(order.begin(), order.end(), 0u);
      break;
    case KeyTier::kPacked:
      if (partials.size() == 1) {
        order.resize(p0.groups.size());
        std::iota(order.begin(), order.end(), 0u);
        break;
      }
      {
        // The key space splits into hash partitions merged in parallel.
        struct MergedGroup {
          std::vector<AggState> states;
          size_t first_row;
        };
        const size_t num_parts = partials.size();
        std::vector<std::vector<MergedGroup>> part_groups(num_parts);
        RunPartitions(num_parts, num_parts, [&](size_t part) {
          KeyMap seen;
          std::vector<MergedGroup>& out = part_groups[part];
          for (const AggPartial& p : partials) {
            p.groups.ForEach([&](std::string_view key, size_t id) {
              if (KeyMap::Hash(key) % num_parts != part) return;
              auto [g, inserted] = seen.GetOrAdd(key);
              if (inserted) {
                out.push_back({aggdetail::GatherStates(p.spec_states, id),
                               p.first_row[id]});
                return;
              }
              for (size_t a = 0; a < num_specs; ++a) {
                aggdetail::MergeState(out[g].states[a],
                                      p.spec_states[a][id]);
              }
              out[g].first_row = std::min(out[g].first_row, p.first_row[id]);
            });
          }
        });
        std::vector<MergedGroup> merged;
        for (std::vector<MergedGroup>& pg : part_groups) {
          for (MergedGroup& mg : pg) merged.push_back(std::move(mg));
        }
        std::sort(merged.begin(), merged.end(),
                  [](const MergedGroup& a, const MergedGroup& b) {
                    return a.first_row < b.first_row;
                  });
        states.reserve(merged.size());
        representative_row.reserve(merged.size());
        for (MergedGroup& mg : merged) {
          states.push_back(std::move(mg.states));
          representative_row.push_back(mg.first_row);
        }
      }
      break;
  }
  // A single worker keys its groups in first-seen order already.
  if (tier == KeyTier::kDirectDict || partials.size() > 1) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return p0.first_row[a] < p0.first_row[b];
    });
  }
  states.reserve(order.size());
  representative_row.reserve(order.size());
  for (uint32_t g : order) {
    states.push_back(aggdetail::GatherStates(p0.spec_states, g));
    representative_row.push_back(p0.first_row[g]);
  }

  if (op.active()) {
    // Hash-table shape: the peak across the workers' thread-local partials
    // (the merge touches every partial, so that count doubles as spill
    // volume). Direct-dict has no hash table at all: the dictionary code
    // indexed the accumulator arrays, whose size is reported as the slots.
    size_t peak_groups = 0, peak_slots = 0;
    std::string detail = "keys=";
    switch (tier) {
      case KeyTier::kDirectDict:
        peak_groups = states.size();
        peak_slots = direct_slots;
        detail += "direct-dict(" + std::to_string(direct_slots - 1) + ")";
        break;
      case KeyTier::kInline:
        for (const AggPartial& p : partials) {
          if (p.itab.size() > peak_groups) {
            peak_groups = p.itab.size();
            peak_slots = p.itab.slots();
          }
        }
        detail += "inline(" + std::to_string(group_idx.size()) + "x8B)";
        break;
      case KeyTier::kPacked:
        for (const AggPartial& p : partials) {
          if (p.groups.size() > peak_groups) {
            peak_groups = p.groups.size();
            peak_slots = p.groups.slots();
          }
        }
        detail += "packed(" + std::to_string(encoder.fixed_width()) + "B)";
        break;
    }
    op.SetHashTable(peak_groups, peak_slots);
    if (filter_node != nullptr) {
      size_t kept = 0;
      for (const AggPartial& p : partials) kept += p.kept;
      filter_node->detail = pred->evaluator() + ", per morsel";
      filter_node->stats.rows_in = n;
      filter_node->stats.rows_out = kept;
      detail += "+where";
    }
    op.SetDetail(detail);
    op.SetRows(n, states.size());
    op.SetMorsels(plan.num_morsels, plan.num_workers);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
  }

  return aggdetail::EmitAggOutput(input, group_idx, aggs, bind.out_types,
                                  states, representative_row);
}

Result<Column> PercentDivideColumns(const Column& num, const Column& den) {
  if (!IsNumeric(num) || !IsNumeric(den)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  std::vector<double> a(n), b(n), r(n);
  std::vector<uint8_t> ok(n);
  const uint8_t* nv = num.validity().data();
  const uint8_t* dv = den.validity().data();
  for (size_t i = 0; i < n; ++i) {
    // NULL slots hold placeholder payloads; reading them is fine because
    // `ok` masks those lanes out of the output.
    a[i] = num.NumericAt(i);
    b[i] = den.NumericAt(i);
    ok[i] = nv[i] != 0 && dv[i] != 0 && b[i] != 0.0;
  }
  DivideLanes(a.data(), b.data(), r.data(), n);
  Column out(DataType::kFloat64);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ok[i]) {
      out.AppendFloat64(r[i] + 0.0);  // -0 -> +0, as Div does
    } else {
      out.AppendNull();
    }
  }
  return out;
}

Result<Column> PercentDivideScalar(const Column& num, const Value& total) {
  if (!IsNumeric(num)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  Column out(DataType::kFloat64);
  out.Reserve(n);
  if (total.is_null() || total.AsDouble() == 0.0) {
    for (size_t i = 0; i < n; ++i) out.AppendNull();
    return out;
  }
  const double b = total.AsDouble();
  std::vector<double> a(n), bb(n, b), r(n);
  const uint8_t* nv = num.validity().data();
  for (size_t i = 0; i < n; ++i) a[i] = num.NumericAt(i);
  DivideLanes(a.data(), bb.data(), r.data(), n);
  for (size_t i = 0; i < n; ++i) {
    if (nv[i] != 0) {
      out.AppendFloat64(r[i] + 0.0);  // -0 -> +0, as Div does
    } else {
      out.AppendNull();
    }
  }
  return out;
}

}  // namespace pctagg
