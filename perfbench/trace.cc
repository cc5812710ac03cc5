#include "perfbench/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "perfbench/stats.h"

namespace perfbench {

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

uint64_t Tracer::Record(const std::string& name, uint64_t parent,
                        uint64_t request, Clock::time_point start,
                        Clock::time_point end, bool replay,
                        std::vector<std::pair<std::string, double>> counts) {
  const uint64_t id = NewId();
  RecordWithId(id, name, parent, request, start, end, replay,
               std::move(counts));
  return id;
}

void Tracer::RecordWithId(
    uint64_t id, const std::string& name, uint64_t parent, uint64_t request,
    Clock::time_point start, Clock::time_point end, bool replay,
    std::vector<std::pair<std::string, double>> counts) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ms = MillisBetween(epoch_, start);
  span.end_ms = MillisBetween(epoch_, end);
  span.replay = replay;
  span.counts = std::move(counts);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fprintf(file, "[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Span and count names are fixed identifiers: no escaping needed.
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"replay\":%s,\"counts\":{",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_ms, s.end_ms, s.replay ? "true" : "false");
    for (size_t c = 0; c < s.counts.size(); ++c) {
      std::fprintf(file, "%s\"%s\":%.17g", c == 0 ? "" : ",",
                   s.counts[c].first.c_str(), s.counts[c].second);
    }
    std::fprintf(file, "}}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(file, "]\n");
  return std::fclose(file) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<double, double>> covered;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const double lo = std::max(spans[c].start_ms, span.start_ms);
        const double hi = std::min(spans[c].end_ms, span.end_ms);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_ms = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ms += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ms += run_hi - run_lo;
    self[i] = span.duration_ms() - union_ms;
  }
  return self;
}

bool Reconciliation::Within(double query_tolerance,
                            double replay_tolerance) const {
  return queries > 0 && replays > 0 &&
         std::fabs(query_cover - 1.0) <= query_tolerance &&
         std::fabs(shard_cover - 1.0) <= replay_tolerance &&
         std::fabs(layer_cover - 1.0) <= replay_tolerance;
}

Reconciliation Reconcile(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  auto kids = [&children](uint64_t id) -> const std::vector<size_t>& {
    static const std::vector<size_t> kNone;
    const auto it = children.find(id);
    return it == children.end() ? kNone : it->second;
  };
  std::vector<double> query_cover, shard_cover, layer_cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& query = spans[i];
    if (query.name != "query" || query.replay) continue;
    if (query.duration_ms() > 0.0) {
      query_cover.push_back(1.0 - self[i] / query.duration_ms());
    }
    double router_ms = -1.0;
    for (size_t c : kids(query.id)) {
      if (spans[c].name == "router" && !spans[c].replay) {
        router_ms = spans[c].duration_ms();
      }
    }
    for (size_t r : kids(query.id)) {
      if (spans[r].name != "replay" || router_ms <= 0.0) continue;
      double shard = 0.0, local = 0.0, layers = 0.0;
      bool has_local = false;
      for (size_t c : kids(spans[r].id)) {
        const Span& layer = spans[c];
        if (layer.name == "shard") {
          shard += layer.duration_ms();
        } else if (layer.name == "local") {
          local += layer.duration_ms();
          has_local = true;
        } else if (layer.name == "probe" || layer.name == "estimate" ||
                   layer.name == "merge") {
          layers += layer.duration_ms();
        }
      }
      shard_cover.push_back(shard / router_ms);
      layer_cover.push_back((layers + (has_local ? shard - local : 0.0)) /
                            router_ms);
    }
  }
  Reconciliation result;
  result.query_cover = Median(query_cover);
  result.shard_cover = Median(shard_cover);
  result.layer_cover = Median(layer_cover);
  result.queries = query_cover.size();
  result.replays = shard_cover.size();
  return result;
}

}  // namespace perfbench
