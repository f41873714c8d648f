#ifndef PCTAGG_ENGINE_PACKED_KEY_H_
#define PCTAGG_ENGINE_PACKED_KEY_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "engine/table.h"

namespace pctagg {

// True when KeyMap's batch path should run its AVX2 candidate pre-probe:
// the CPU has AVX2 and SIMD is not disabled (PCTAGG_DISABLE_SIMD / test
// override). Defined in packed_key.cc next to the vector kernel.
bool KeyMapBatchProbeSimd();

// Packed binary group-key encoding shared by group-by, pivot, joins, window
// partitioning and hash indexes.
//
// The seed encoded composite keys through Column::AppendKeyBytes, which
// pattern-matched a std::variant per row per column; worse, every consumer
// then called unordered_map::emplace(key, ...) per row, and libstdc++'s
// emplace allocates a map node before probing — one heap allocation per input
// row even when the group already exists. KeyEncoder resolves the typed data
// pointers once per (table, column-set), appends a fixed-width packed
// encoding per row, and KeyMap probes with find() first so the steady state
// (key already present) allocates nothing.
//
// Encoding, per column — every type is fixed width, so every composite key
// over the same column set is exactly fixed_width() bytes and the
// stride-constant batch path applies to string-keyed queries too:
//   INT64       -> 0x11 then 8 payload bytes (little-endian memcpy)
//   FLOAT64     -> 0x12 then 8 payload bytes
//   STRING      -> 0x13 then the 4-byte dictionary code
//   NULL        -> 0x00, padded with zero payload bytes to the column's
//                  width (9 for the numeric types, 5 for strings)
// Two composite keys compare equal iff each column is equal with equal type,
// matching the seed's type-tagged semantics (int64 5 != float64 5.0).
//
// String codes are only meaningful relative to their column's Dictionary, so
// encodings from different tables are directly comparable only for numeric
// columns or string columns that share a dictionary (which operator outputs
// do — see Column::AppendFrom). A join/update probing keys built from the
// OTHER side uses the translating constructor, which maps each probe-side
// code to the build side's code for the same string once per distinct value
// (absent values map to Dictionary::kInvalidCode, which no build-side key
// can carry, so such probes simply never match).
class KeyEncoder {
 public:
  KeyEncoder(const Table& table, const std::vector<size_t>& column_indices);

  // Translating probe encoder: keys built from (table, column_indices)
  // compare equal to keys built from (target, target_indices) iff the rows
  // match column-wise — string codes are rewritten into the target's code
  // space. Column counts must match; types should line up pairwise (rows of
  // mismatched type never compare equal, exactly as before).
  KeyEncoder(const Table& table, const std::vector<size_t>& column_indices,
             const Table& target, const std::vector<size_t>& target_indices);

  // Appends the packed key for `row` to `*out` (does not clear it).
  void AppendKey(size_t row, std::string* out) const;

  // Writes the packed keys for rows [begin, end) into `out` at a stride of
  // fixed_width() bytes per row, one column at a time so the per-column type
  // dispatch runs once per column instead of once per row. Byte-identical to
  // AppendKey. `out` must hold (end - begin) * fixed_width() bytes.
  void EncodeFixedBatch(size_t begin, size_t end, char* out) const;

  // Gather variant for the fused path's filtered morsels: same layout and
  // bytes as EncodeFixedBatch, but over an explicit row list instead of a
  // contiguous range. `out` must hold count * fixed_width() bytes.
  void EncodeFixedRows(const uint32_t* rows, size_t count, char* out) const;

  // Exact bytes per key.
  size_t fixed_width() const { return fixed_width_; }

 private:
  struct Col {
    DataType type;
    const uint8_t* validity;
    const int64_t* i64 = nullptr;        // set iff type == kInt64
    const double* f64 = nullptr;         // set iff type == kFloat64
    const uint32_t* codes = nullptr;     // set iff type == kString
    const uint32_t* translate = nullptr; // optional probe-code rewrite table
    size_t width = 0;                    // bytes incl. tag: 9 or 5
  };

  void Init(const Table& table, const std::vector<size_t>& column_indices);

  std::vector<Col> cols_;
  // Per-string-column probe-code -> target-code tables (parallel to cols_
  // via Col::translate); boxed so cols_ pointers survive vector growth.
  std::vector<std::vector<uint32_t>> translations_;
  size_t fixed_width_ = 0;
};

// An insert-ordered map from packed key to a dense id [0, size),
// implemented as an open-addressing (linear probing) slot table over one
// contiguous key arena. The steady state (key already present) touches two
// flat arrays and one arena memcmp: no node allocation, no std::string copy,
// no per-byte std::hash walk. That is the fix for the per-row emplace node
// churn described above, and it is what the morsel workers key their
// thread-local partials with.
class KeyMap {
 public:
  // Returns {id, inserted}. Ids are dense and assigned in insertion order.
  // Defined inline: this runs once per input row in every keyed operator.
  std::pair<size_t, bool> GetOrAdd(std::string_view key) {
    if (slot_id_.empty()) Grow(64);
    uint64_t h = Hash(key);
    size_t idx = h & mask_;
    while (slot_id_[idx] != kEmptySlot) {
      if (slot_hash_[idx] == h && KeyEq(KeyAt(slot_id_[idx]), key)) {
        return {slot_id_[idx], false};
      }
      idx = (idx + 1) & mask_;
    }
    size_t id = key_offset_.size();
    key_offset_.push_back(arena_.size());
    arena_.append(key.data(), key.size());
    slot_hash_[idx] = h;
    slot_id_[idx] = static_cast<uint32_t>(id);
    // Keep the load factor at or below 1/2 so probe chains stay short.
    if ((id + 1) * 2 >= slot_id_.size()) Grow(slot_id_.size() * 2);
    return {id, true};
  }

  // Batch variant over the fixed-stride key block EncodeFixedBatch produced:
  // assigns ids for rows [base_row, base_row + count) and writes them to
  // gid_out. On insert it appends base_row + i to *first_row; on a hit it
  // lowers (*first_row)[id] if this row precedes the recorded one. Common
  // strides dispatch to a specialization whose hash and comparison unroll
  // with the key words held in registers — that is worth ~4x over the
  // per-row scalar path on the two-int-column group-by this engine runs
  // constantly. Ids are interchangeable with the scalar path's. The listed
  // strides cover 1-4 columns of numeric (9-byte) and dictionary-coded
  // string (5-byte) keys in every mix that shows up in the workloads.
  void GetOrAddFixedBatch(const char* keys, size_t stride, size_t count,
                          size_t base_row, uint32_t* gid_out,
                          std::vector<size_t>* first_row) {
    switch (stride) {
      case 5:   // one string column
        return FixedBatch<5, false>(keys, count, base_row, nullptr, gid_out,
                                    first_row);
      case 9:   // one numeric column
        return FixedBatch<9, false>(keys, count, base_row, nullptr, gid_out,
                                    first_row);
      case 10:  // two strings
        return FixedBatch<10, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 14:  // string + numeric
        return FixedBatch<14, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 15:  // three strings
        return FixedBatch<15, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 18:  // two numerics
        return FixedBatch<18, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 19:  // two strings + numeric
        return FixedBatch<19, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 23:  // string + two numerics
        return FixedBatch<23, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 27:  // three numerics
        return FixedBatch<27, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 28:  // two strings + two numerics
        return FixedBatch<28, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      case 36:  // four numerics
        return FixedBatch<36, false>(keys, count, base_row, nullptr, gid_out,
                                     first_row);
      default:
        const char* kp = keys;
        for (size_t i = 0; i < count; ++i, kp += stride) {
          auto [id, inserted] = GetOrAdd(std::string_view(kp, stride));
          if (inserted) {
            first_row->push_back(base_row + i);
          } else if (base_row + i < (*first_row)[id]) {
            (*first_row)[id] = base_row + i;
          }
          gid_out[i] = static_cast<uint32_t>(id);
        }
    }
  }

  // Rows-list variant for the fused path's filtered morsels: key i was
  // encoded from input row rows[i] (ascending). Semantically identical to
  // GetOrAddFixedBatch with base_row replaced by the explicit row ids.
  void GetOrAddFixedBatchRows(const char* keys, size_t stride, size_t count,
                              const uint32_t* rows, uint32_t* gid_out,
                              std::vector<size_t>* first_row) {
    switch (stride) {
      case 5:
        return FixedBatch<5, true>(keys, count, 0, rows, gid_out, first_row);
      case 9:
        return FixedBatch<9, true>(keys, count, 0, rows, gid_out, first_row);
      case 10:
        return FixedBatch<10, true>(keys, count, 0, rows, gid_out, first_row);
      case 14:
        return FixedBatch<14, true>(keys, count, 0, rows, gid_out, first_row);
      case 15:
        return FixedBatch<15, true>(keys, count, 0, rows, gid_out, first_row);
      case 18:
        return FixedBatch<18, true>(keys, count, 0, rows, gid_out, first_row);
      case 19:
        return FixedBatch<19, true>(keys, count, 0, rows, gid_out, first_row);
      case 23:
        return FixedBatch<23, true>(keys, count, 0, rows, gid_out, first_row);
      case 27:
        return FixedBatch<27, true>(keys, count, 0, rows, gid_out, first_row);
      case 28:
        return FixedBatch<28, true>(keys, count, 0, rows, gid_out, first_row);
      case 36:
        return FixedBatch<36, true>(keys, count, 0, rows, gid_out, first_row);
      default:
        const char* kp = keys;
        for (size_t i = 0; i < count; ++i, kp += stride) {
          auto [id, inserted] = GetOrAdd(std::string_view(kp, stride));
          if (inserted) {
            first_row->push_back(rows[i]);
          } else if (rows[i] < (*first_row)[id]) {
            (*first_row)[id] = rows[i];
          }
          gid_out[i] = static_cast<uint32_t>(id);
        }
    }
  }

  // Returns the id for `key` or SIZE_MAX if absent.
  size_t Find(std::string_view key) const {
    if (slot_id_.empty()) return SIZE_MAX;
    uint64_t h = Hash(key);
    size_t idx = h & mask_;
    while (slot_id_[idx] != kEmptySlot) {
      if (slot_hash_[idx] == h && KeyEq(KeyAt(slot_id_[idx]), key)) {
        return slot_id_[idx];
      }
      idx = (idx + 1) & mask_;
    }
    return SIZE_MAX;
  }

  size_t size() const { return key_offset_.size(); }
  // Open-addressing slots currently backing the table (observability: the
  // load factor is size()/slots()).
  size_t slots() const { return slot_id_.size(); }
  void Reserve(size_t n);

  // The stored bytes of key `id` (valid until the next GetOrAdd).
  std::string_view KeyAt(size_t id) const {
    size_t begin = key_offset_[id];
    size_t end = id + 1 < key_offset_.size() ? key_offset_[id + 1]
                                             : arena_.size();
    return std::string_view(arena_.data() + begin, end - begin);
  }

  // Iterates (key, id) in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t id = 0; id < key_offset_.size(); ++id) fn(KeyAt(id), id);
  }

  // The 64-bit hash KeyMap probes with; exposed so the partitioned merge of
  // two-phase aggregation can split the key space consistently across
  // workers' partials. Two independent multiply-mix lanes consume 16 bytes
  // per iteration so the multiplies pipeline instead of serializing — a
  // typical two-column packed key (18 bytes) costs a dependency chain of
  // three multiplies rather than five — then a splitmix-style finalizer
  // gives the low bits enough avalanche for power-of-two slot indexing.
  static uint64_t Hash(std::string_view key) {
    const char* p = key.data();
    size_t n = key.size();
    uint64_t h1 = 0x9e3779b97f4a7c15ULL ^ n;
    uint64_t h2 = 0xc2b2ae3d27d4eb4fULL;
    while (n >= 16) {
      uint64_t w1, w2;
      std::memcpy(&w1, p, 8);
      std::memcpy(&w2, p + 8, 8);
      h1 = (h1 ^ w1) * 0x2545f4914f6cdd1dULL;
      h2 = (h2 ^ w2) * 0x9e3779b97f4a7c15ULL;
      p += 16;
      n -= 16;
    }
    if (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h1 = (h1 ^ w) * 0x2545f4914f6cdd1dULL;
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      h2 = (h2 ^ w) * 0x9e3779b97f4a7c15ULL;
    }
    uint64_t h = h1 ^ (h2 * 0xff51afd7ed558ccdULL);
    h ^= h >> 32;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // Inline word-at-a-time equality: packed keys are a few dozen bytes, where
  // the call overhead of library memcmp dominates the comparison itself.
  static bool KeyEq(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    const char* pa = a.data();
    const char* pb = b.data();
    size_t n = a.size();
    while (n >= 8) {
      uint64_t x, y;
      std::memcpy(&x, pa, 8);
      std::memcpy(&y, pb, 8);
      if (x != y) return false;
      pa += 8;
      pb += 8;
      n -= 8;
    }
    if (n >= 4) {
      uint32_t x, y;
      std::memcpy(&x, pa, 4);
      std::memcpy(&y, pb, 4);
      if (x != y) return false;
      pa += 4;
      pb += 4;
      n -= 4;
    }
    while (n-- > 0) {
      if (*pa++ != *pb++) return false;
    }
    return true;
  }

  // Doubles the slot table and re-places every id by its stored hash.
  void Grow(size_t min_slots);

  // One full probe-or-insert for a key whose hash is already computed.
  // Extracted from the batch loop so the AVX2 candidate path can fall back
  // to it per key; identical to the GetOrAdd probe.
  template <size_t kStride>
  uint32_t ProbeOne(const char* kp, uint64_t h, size_t row,
                    std::vector<size_t>* first_row) {
    size_t idx = h & mask_;
    for (;;) {
      const uint32_t slot = slot_id_[idx];
      if (slot == kEmptySlot) {
        const size_t id = key_offset_.size();
        key_offset_.push_back(arena_.size());
        arena_.append(kp, kStride);
        slot_hash_[idx] = h;
        slot_id_[idx] = static_cast<uint32_t>(id);
        first_row->push_back(row);
        if ((id + 1) * 2 >= slot_id_.size()) Grow(slot_id_.size() * 2);
        return static_cast<uint32_t>(id);
      }
      if (slot_hash_[idx] == h) {
        std::string_view stored = KeyAt(slot);
        if (stored.size() == kStride &&
            KeyEq(std::string_view(stored.data(), kStride),
                  std::string_view(kp, kStride))) {
          if (row < (*first_row)[slot]) (*first_row)[slot] = row;
          return slot;
        }
      }
      idx = (idx + 1) & mask_;
    }
  }

  // Gathers the FIRST probe slot for each hash (8-byte slot_hash and 4-byte
  // slot_id loads, four lanes at a time under AVX2) and emits the slot's id
  // where the stored hash matches, UINT32_MAX otherwise. Candidates are
  // hash-matches only — the caller confirms bytes via KeyAt/KeyEq, so the
  // vector path never reads key bytes out of bounds and a stale or colliding
  // candidate degrades to the scalar probe instead of a wrong id. Defined in
  // packed_key.cc (with a target attribute on x86-64, a scalar loop
  // elsewhere).
  void ProbeCandidates(const uint64_t* hashes, size_t count,
                       uint32_t* cand) const;

  // GetOrAddFixedBatch's per-stride worker. With kStride a constant the
  // Hash chunk loop and the KeyEq word loop fully unroll, and the compiler
  // keeps each key's words in registers across hashing and comparison.
  // When the runtime probe allows it, each chunk of keys is hashed up front
  // and the slot table is probed four lanes at a time; in the steady state
  // (group exists, first probe slot hits) the per-key work collapses to one
  // confirm-compare. Keys that miss their candidate — new groups, probe
  // chains, keys inserted earlier in the same chunk — take the scalar
  // ProbeOne, so results are identical with SIMD on or off.
  template <size_t kStride, bool kHasRows>
  void FixedBatch(const char* keys, size_t count, size_t base_row,
                  const uint32_t* rows, uint32_t* gid_out,
                  std::vector<size_t>* first_row) {
    if (slot_id_.empty()) Grow(64);
    constexpr size_t kChunk = 16;
    const bool simd = KeyMapBatchProbeSimd();
    uint64_t hashes[kChunk];
    uint32_t cand[kChunk];
    size_t i = 0;
    while (i < count) {
      const size_t c = count - i < kChunk ? count - i : kChunk;
      const char* kp = keys + i * kStride;
      if (simd && c == kChunk) {
        const char* q = kp;
        for (size_t j = 0; j < kChunk; ++j, q += kStride) {
          hashes[j] = Hash(std::string_view(q, kStride));
        }
        ProbeCandidates(hashes, kChunk, cand);
        for (size_t j = 0; j < kChunk; ++j, kp += kStride) {
          const size_t row = kHasRows ? rows[i + j] : base_row + i + j;
          const uint32_t id = cand[j];
          if (id != kEmptySlot) {
            std::string_view stored = KeyAt(id);
            if (stored.size() == kStride &&
                KeyEq(std::string_view(stored.data(), kStride),
                      std::string_view(kp, kStride))) {
              if (row < (*first_row)[id]) (*first_row)[id] = row;
              gid_out[i + j] = id;
              continue;
            }
          }
          gid_out[i + j] = ProbeOne<kStride>(kp, hashes[j], row, first_row);
        }
      } else {
        for (size_t j = 0; j < c; ++j, kp += kStride) {
          const size_t row = kHasRows ? rows[i + j] : base_row + i + j;
          const uint64_t h = Hash(std::string_view(kp, kStride));
          gid_out[i + j] = ProbeOne<kStride>(kp, h, row, first_row);
        }
      }
      i += c;
    }
  }

  std::vector<uint64_t> slot_hash_;  // parallel to slot_id_
  std::vector<uint32_t> slot_id_;    // kEmptySlot marks a free slot
  std::vector<size_t> key_offset_;   // per id: start of its bytes in arena_
  std::string arena_;                // all keys, concatenated
  size_t mask_ = 0;                  // slot count - 1 (power of two)
};

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_PACKED_KEY_H_
