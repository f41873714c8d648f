#include "engine/column.h"

#include <cstring>
#include <type_traits>

namespace pctagg {

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kInt64:
      data_ = std::vector<int64_t>();
      break;
    case DataType::kFloat64:
      data_ = std::vector<double>();
      break;
    case DataType::kString:
      data_ = std::vector<uint32_t>();
      dict_ = std::make_shared<Dictionary>();
      break;
  }
}

Column Column::FromInt64(std::vector<int64_t> data,
                         std::vector<uint8_t> validity) {
  Column c(DataType::kInt64);
  c.data_ = std::move(data);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::FromFloat64(std::vector<double> data,
                           std::vector<uint8_t> validity) {
  Column c(DataType::kFloat64);
  c.data_ = std::move(data);
  c.validity_ = std::move(validity);
  return c;
}

Column Column::FromCodes(std::vector<uint32_t> codes,
                         std::vector<uint8_t> validity,
                         std::shared_ptr<Dictionary> dict) {
  Column c(DataType::kString);
  c.data_ = std::move(codes);
  c.validity_ = std::move(validity);
  c.dict_ = std::move(dict);
  return c;
}

void Column::Reserve(size_t n) {
  validity_.reserve(n);
  std::visit([n](auto& vec) { vec.reserve(n); }, data_);
}

void Column::AppendNull() {
  std::visit([](auto& vec) { vec.emplace_back(); }, data_);
  validity_.push_back(0);
}

void Column::AppendInt64(int64_t v) {
  std::get<std::vector<int64_t>>(data_).push_back(v);
  validity_.push_back(1);
}

void Column::AppendFloat64(double v) {
  std::get<std::vector<double>>(data_).push_back(v);
  validity_.push_back(1);
}

void Column::AppendString(std::string_view v) {
  std::get<std::vector<uint32_t>>(data_).push_back(dict_->GetOrAdd(v));
  validity_.push_back(1);
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (v.is_int64()) {
        AppendInt64(v.int64());
        return Status::OK();
      }
      break;
    case DataType::kFloat64:
      if (v.is_float64()) {
        AppendFloat64(v.float64());
        return Status::OK();
      }
      if (v.is_int64()) {  // implicit widening, as SQL does
        AppendFloat64(static_cast<double>(v.int64()));
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (v.is_string()) {
        AppendString(v.string());
        return Status::OK();
      }
      break;
  }
  return Status::TypeMismatch(std::string("cannot store ") + v.ToString() +
                              " in " + DataTypeName(type_) + " column");
}

void Column::AppendFrom(const Column& other, size_t row) {
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(other.Int64At(row));
      break;
    case DataType::kFloat64:
      AppendFloat64(other.type() == DataType::kInt64
                        ? static_cast<double>(other.Int64At(row))
                        : other.Float64At(row));
      break;
    case DataType::kString: {
      if (dict_ != other.dict_) {
        if (empty() && dict_->size() == 0) {
          // First string into a fresh column: adopt the source dictionary so
          // the whole operator output reuses the source's codes (and so a
          // result table keeps sharing its base table's pool).
          dict_ = other.dict_;
        } else {
          AppendString(other.StringAt(row));
          return;
        }
      }
      std::get<std::vector<uint32_t>>(data_).push_back(other.codes()[row]);
      validity_.push_back(1);
      break;
    }
  }
}

Column Column::Gather(const uint32_t* rows, size_t count) const {
  std::vector<uint8_t> validity(count);
  for (size_t i = 0; i < count; ++i) validity[i] = validity_[rows[i]];
  return std::visit(
      [&](const auto& vec) {
        std::remove_cv_t<std::remove_reference_t<decltype(vec)>> out(count);
        for (size_t i = 0; i < count; ++i) out[i] = vec[rows[i]];
        Column c(type_);
        c.data_ = std::move(out);
        c.validity_ = std::move(validity);
        c.dict_ = dict_;
        return c;
      },
      data_);
}

void Column::AppendAllFrom(const Column& other) {
  if (other.type() != type_) {
    // Widening (float64 <- int64) stays on the scalar path; the bulk path
    // below assumes identical payload representations.
    for (size_t row = 0; row < other.size(); ++row) AppendFrom(other, row);
    return;
  }
  bool was_empty = empty();
  validity_.insert(validity_.end(), other.validity_.begin(),
                   other.validity_.end());
  switch (type_) {
    case DataType::kInt64: {
      auto& dst = std::get<std::vector<int64_t>>(data_);
      const auto& src = other.int64_data();
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case DataType::kFloat64: {
      auto& dst = std::get<std::vector<double>>(data_);
      const auto& src = other.float64_data();
      dst.insert(dst.end(), src.begin(), src.end());
      break;
    }
    case DataType::kString: {
      auto& dst = std::get<std::vector<uint32_t>>(data_);
      const auto& src = other.codes();
      if (dict_ == other.dict_ || (was_empty && dict_->size() == 0)) {
        // Shared codes, or adoption into a fresh column (same rule as
        // AppendFrom): the source codes are already this column's codes.
        dict_ = other.dict_;
        dst.insert(dst.end(), src.begin(), src.end());
        break;
      }
      // Different dictionaries: intern each *distinct* source code once,
      // then map rows through the translation table. NULL rows keep their
      // placeholder code 0 without consulting the source dictionary.
      std::vector<uint32_t> translated(other.dict_->size(),
                                       Dictionary::kInvalidCode);
      dst.reserve(dst.size() + src.size());
      for (size_t row = 0; row < src.size(); ++row) {
        if (other.validity_[row] == 0) {
          dst.push_back(0);
          continue;
        }
        uint32_t code = src[row];
        if (translated[code] == Dictionary::kInvalidCode) {
          translated[code] = dict_->GetOrAdd(other.dict_->value(code));
        }
        dst.push_back(translated[code]);
      }
      break;
    }
  }
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(Int64At(row));
    case DataType::kFloat64:
      return Value::Float64(Float64At(row));
    case DataType::kString:
      return Value::String(StringAt(row));
  }
  return Value::Null();
}

Status Column::SetValue(size_t row, const Value& v) {
  if (row >= size()) return Status::InvalidArgument("SetValue row out of range");
  if (v.is_null()) {
    validity_[row] = 0;
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) break;
      std::get<std::vector<int64_t>>(data_)[row] = v.int64();
      validity_[row] = 1;
      return Status::OK();
    case DataType::kFloat64:
      if (!v.is_int64() && !v.is_float64()) break;
      std::get<std::vector<double>>(data_)[row] = v.AsDouble();
      validity_[row] = 1;
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) break;
      std::get<std::vector<uint32_t>>(data_)[row] = dict_->GetOrAdd(v.string());
      validity_[row] = 1;
      return Status::OK();
  }
  return Status::TypeMismatch(std::string("cannot store ") + v.ToString() +
                              " in " + DataTypeName(type_) + " column");
}

void Column::AppendKeyBytes(size_t row, std::string* out) const {
  if (IsNull(row)) {
    out->push_back('\0');
    return;
  }
  switch (type_) {
    case DataType::kInt64: {
      out->push_back('i');
      int64_t v = Int64At(row);
      char buf[sizeof(v)];
      std::memcpy(buf, &v, sizeof(v));
      out->append(buf, sizeof(v));
      break;
    }
    case DataType::kFloat64: {
      out->push_back('f');
      double v = Float64At(row);
      char buf[sizeof(v)];
      std::memcpy(buf, &v, sizeof(v));
      out->append(buf, sizeof(v));
      break;
    }
    case DataType::kString: {
      out->push_back('s');
      uint32_t code = codes()[row];
      char buf[sizeof(code)];
      std::memcpy(buf, &code, sizeof(code));
      out->append(buf, sizeof(code));
      break;
    }
  }
}

}  // namespace pctagg
