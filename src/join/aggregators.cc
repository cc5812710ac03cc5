#include "src/join/aggregators.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/string_util.h"

namespace joinmi {

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kFirst:
      return "first";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kMode:
      return "mode";
    case AggKind::kMedian:
      return "median";
  }
  return "unknown";
}

Result<AggKind> AggKindFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "first") return AggKind::kFirst;
  if (lower == "avg" || lower == "mean") return AggKind::kAvg;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "count") return AggKind::kCount;
  if (lower == "mode") return AggKind::kMode;
  if (lower == "median") return AggKind::kMedian;
  return Status::InvalidArgument("unknown aggregator '" + name + "'");
}

Result<DataType> AggOutputType(AggKind kind, DataType input) {
  switch (kind) {
    case AggKind::kCount:
      return DataType::kInt64;
    case AggKind::kAvg:
    case AggKind::kMedian:
      if (!IsNumeric(input)) {
        return Status::TypeError(std::string(AggKindToString(kind)) +
                                 " requires a numeric input column");
      }
      return DataType::kDouble;
    case AggKind::kSum:
      if (!IsNumeric(input)) {
        return Status::TypeError("sum requires a numeric input column");
      }
      return input;
    case AggKind::kFirst:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kMode:
      return input;
  }
  return Status::InvalidArgument("unknown aggregator kind");
}

Result<Value> Aggregate(AggKind kind, const std::vector<Value>& group) {
  AggregatorState state(kind);
  for (const Value& v : group) {
    JOINMI_RETURN_NOT_OK(state.Update(v));
  }
  return state.Finish();
}

Status AggregatorState::Update(const Value& v) {
  if (v.is_null()) {
    return Status::InvalidArgument("aggregators do not accept null values");
  }
  if (count_ == 0) first_ = v;
  switch (kind_) {
    case AggKind::kMin:
      if (count_ == 0 || v < min_) min_ = v;
      break;
    case AggKind::kMax:
      if (count_ == 0 || max_ < v) max_ = v;
      break;
    case AggKind::kAvg:
    case AggKind::kSum:
    case AggKind::kMedian: {
      JOINMI_ASSIGN_OR_RETURN(double d, v.AsDouble());
      sum_ += d;
      if (kind_ == AggKind::kMedian) buffer_.push_back(v);
      break;
    }
    case AggKind::kMode:
      buffer_.push_back(v);
      break;
    default:
      break;
  }
  ++count_;
  return Status::OK();
}

Result<Value> AggregatorState::Finish() const {
  if (count_ == 0) {
    return Status::InvalidArgument("aggregating an empty group");
  }
  switch (kind_) {
    case AggKind::kFirst:
      return first_;
    case AggKind::kMin:
      return min_;
    case AggKind::kMax:
      return max_;
    case AggKind::kCount:
      return Value(static_cast<int64_t>(count_));
    case AggKind::kAvg:
      return Value(sum_ / static_cast<double>(count_));
    case AggKind::kSum:
      if (first_.is_int64()) {
        return Value(static_cast<int64_t>(sum_));
      }
      return Value(sum_);
    case AggKind::kMedian: {
      std::vector<double> xs;
      xs.reserve(buffer_.size());
      for (const Value& v : buffer_) {
        JOINMI_ASSIGN_OR_RETURN(double d, v.AsDouble());
        xs.push_back(d);
      }
      std::sort(xs.begin(), xs.end());
      const size_t mid = xs.size() / 2;
      if (xs.size() % 2 == 1) return Value(xs[mid]);
      return Value((xs[mid - 1] + xs[mid]) / 2.0);
    }
    case AggKind::kMode: {
      std::unordered_map<uint64_t, size_t> counts;
      counts.reserve(buffer_.size());
      for (const Value& v : buffer_) ++counts[v.Hash()];
      size_t max_count = 0;
      for (const auto& [hash, c] : counts) {
        (void)hash;
        max_count = std::max(max_count, c);
      }
      // First-seen value among those tied at the maximal count.
      for (const Value& v : buffer_) {
        if (counts[v.Hash()] == max_count) return v;
      }
      return first_;  // unreachable: buffer_ is non-empty
    }
  }
  return Status::InvalidArgument("unknown aggregator kind");
}

void AggregatorState::Reset() {
  count_ = 0;
  sum_ = 0.0;
  first_ = Value::Null();
  min_ = Value::Null();
  max_ = Value::Null();
  buffer_.clear();
}

}  // namespace joinmi
