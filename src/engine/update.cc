#include "engine/update.h"

#include <unordered_map>

#include "engine/join.h"
#include "engine/packed_key.h"

namespace pctagg {

Status KeyedDivideUpdate(Table* target,
                         const std::vector<std::string>& target_keys,
                         const std::string& target_value, const Table& source,
                         const std::vector<std::string>& source_keys,
                         const std::string& source_value,
                         const HashIndex* source_index) {
  if (target_keys.size() != source_keys.size() || target_keys.empty()) {
    return Status::InvalidArgument("update key lists must match and be nonempty");
  }
  std::vector<size_t> tkeys;
  std::vector<size_t> skeys;
  for (const std::string& name : target_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, target->schema().FindColumn(name));
    tkeys.push_back(idx);
  }
  for (const std::string& name : source_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, source.schema().FindColumn(name));
    skeys.push_back(idx);
  }
  PCTAGG_ASSIGN_OR_RETURN(size_t tval, target->schema().FindColumn(target_value));
  PCTAGG_ASSIGN_OR_RETURN(size_t sval, source.schema().FindColumn(source_value));

  const Column& tcol_before = target->column(tval);
  if (tcol_before.type() == DataType::kString ||
      source.column(sval).type() == DataType::kString) {
    return Status::TypeMismatch("divide-update requires numeric value columns");
  }

  const bool use_index =
      source_index != nullptr && IndexMatchesKeys(*source_index, source_keys);
  std::unordered_map<std::string, size_t> built;
  if (!use_index) {
    built.reserve(source.num_rows());
    const KeyEncoder senc(source, skeys);
    std::string key;
    for (size_t row = 0; row < source.num_rows(); ++row) {
      key.clear();
      senc.AppendKey(row, &key);
      built.emplace(key, row);  // keys are unique in Fj; keep the first
    }
  }

  // The updated column always becomes FLOAT64 (percentages are fractions);
  // UPDATE in the paper relies on A being declared wide enough.
  Schema new_schema;
  for (size_t i = 0; i < target->num_columns(); ++i) {
    ColumnDef def = target->schema().column(i);
    if (i == tval) def.type = DataType::kFloat64;
    new_schema.AddColumn(def);
  }
  Table rewritten(new_schema);
  rewritten.Reserve(target->num_rows());

  // Row-store UPDATE semantics: every touched row is read in full, modified,
  // and written back in full — the read-modify-write amplification that makes
  // UPDATE the expensive way to produce FV when |FV| ~ |F| (the paper
  // measured the UPDATE statement at ~80% of total query time).
  const Column& scol = source.column(sval);
  // Translating probe encoder: string key columns rewrite the target's
  // dictionary codes into the source's code space so the packed bytes match
  // the index/build encoding.
  const KeyEncoder tenc(*target, tkeys, source, skeys);
  std::string key;
  for (size_t row = 0; row < target->num_rows(); ++row) {
    key.clear();
    tenc.AppendKey(row, &key);
    const size_t* match = nullptr;
    size_t match_storage = 0;
    if (use_index) {
      const std::vector<size_t>* rows = source_index->Lookup(key);
      if (rows != nullptr && !rows->empty()) {
        match_storage = (*rows)[0];
        match = &match_storage;
      }
    } else {
      auto it = built.find(key);
      if (it != built.end()) {
        match_storage = it->second;
        match = &match_storage;
      }
    }
    std::vector<Value> row_values = target->GetRow(row);  // read full row
    const Value& current = row_values[tval];
    if (match == nullptr || current.is_null() || scol.IsNull(*match)) {
      row_values[tval] = Value::Null();
    } else {
      double divisor = scol.NumericAt(*match);
      // CASE WHEN Fj.A <> 0 THEN Fk.A / Fj.A ELSE NULL END.
      row_values[tval] = divisor == 0.0
                             ? Value::Null()
                             : Value::Float64(current.AsDouble() / divisor +
                                              0.0);  // -0 -> +0, as Div does
    }
    PCTAGG_RETURN_IF_ERROR(rewritten.AppendRow(row_values));  // write back
  }
  *target = std::move(rewritten);
  return Status::OK();
}

}  // namespace pctagg
