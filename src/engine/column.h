#ifndef PCTAGG_ENGINE_COLUMN_H_
#define PCTAGG_ENGINE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/data_type.h"
#include "engine/dictionary.h"
#include "engine/value.h"

namespace pctagg {

// A typed, nullable vector of values: the unit of columnar storage and of
// vectorized expression evaluation. NULLs keep a placeholder slot in the data
// vector and are tracked by a validity byte per row (1 = valid).
//
// String columns are dictionary-encoded: the data vector holds uint32 codes
// into a shared, insert-ordered Dictionary (engine/dictionary.h), so group
// keys, join probes and equality comparisons operate on fixed-width codes
// while StringAt still hands out the payload by reference. Copying a column
// shares the dictionary; AppendFrom into an empty column adopts the source's
// dictionary so operator outputs keep their inputs' codes without
// re-interning.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return validity_.size(); }
  bool empty() const { return validity_.empty(); }

  bool IsNull(size_t row) const { return validity_[row] == 0; }

  void Reserve(size_t n);

  // Typed appends; the data vector and validity grow in lockstep.
  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);

  // Type-checked append of a scalar (NULL always allowed).
  Status AppendValue(const Value& v);

  // Append row `row` of `other` (same type) to this column.
  void AppendFrom(const Column& other, size_t row);

  // Appends every row of `other` in one pass: bulk vector inserts for
  // numeric payloads and validity, and for string columns either code
  // adoption (empty destination, shared dictionary — same rules as
  // AppendFrom) or a per-distinct-code translation into this column's
  // dictionary instead of a per-row hash of the string payload. Interns
  // into the dictionary, so the caller must hold the single-writer append
  // discipline (engine/dictionary.h) when dictionaries differ.
  void AppendAllFrom(const Column& other);

  // A new column holding rows `rows[0, count)` of this one, in that order,
  // with the same type (strings keep sharing this column's dictionary).
  Column Gather(const uint32_t* rows, size_t count) const;

  // Scalar accessors. The typed *At accessors require a non-null slot of the
  // matching type.
  Value GetValue(size_t row) const;
  int64_t Int64At(size_t row) const { return int64_data()[row]; }
  double Float64At(size_t row) const { return float64_data()[row]; }
  const std::string& StringAt(size_t row) const {
    return dict_->value(codes()[row]);
  }

  // Numeric value widened to double (valid for INT64/FLOAT64 columns).
  double NumericAt(size_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(Int64At(row))
                                     : Float64At(row);
  }

  // Direct typed storage, used by vectorized kernels.
  const std::vector<int64_t>& int64_data() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& float64_data() const {
    return std::get<std::vector<double>>(data_);
  }
  // Dictionary codes of a string column (NULL rows hold code 0 as a
  // placeholder; consult validity()).
  const std::vector<uint32_t>& codes() const {
    return std::get<std::vector<uint32_t>>(data_);
  }
  // The dictionary backing a string column (non-null iff type() == kString).
  const std::shared_ptr<Dictionary>& dict() const { return dict_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

  // Overwrites row `row` with a (type-compatible) value; used by the UPDATE
  // operator which models the paper's in-place FV = Fk strategy.
  Status SetValue(size_t row, const Value& v);

  // Storage deserialization hooks: adopt decoded vectors wholesale instead
  // of re-appending row by row. `validity` must match the data length; for
  // FromCodes every valid row's code must be < dict->size(). The storage
  // layer rebuilds dictionaries in insert order, so codes read back from a
  // segment mean exactly what they meant when the segment was written.
  static Column FromInt64(std::vector<int64_t> data,
                          std::vector<uint8_t> validity);
  static Column FromFloat64(std::vector<double> data,
                            std::vector<uint8_t> validity);
  static Column FromCodes(std::vector<uint32_t> codes,
                          std::vector<uint8_t> validity,
                          std::shared_ptr<Dictionary> dict);

  // Appends a deterministic, type-tagged byte encoding of row `row` to
  // `out`. Two rows OF THE SAME COLUMN (or of columns sharing a dictionary)
  // produce identical bytes iff their values are equal; NULL encodes
  // distinctly. String rows encode their dictionary code, so bytes from
  // unrelated string columns are not comparable — every consumer (group-by,
  // DISTINCT, cardinality sampling, indexes) keys rows of one table.
  void AppendKeyBytes(size_t row, std::string* out) const;

 private:
  DataType type_;
  std::variant<std::vector<int64_t>, std::vector<double>,
               std::vector<uint32_t>>
      data_;
  std::vector<uint8_t> validity_;
  std::shared_ptr<Dictionary> dict_;  // set iff type_ == kString
};

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_COLUMN_H_
