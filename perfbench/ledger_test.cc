// Checks the ledger's own arithmetic on hand-built inputs: span self time,
// the reconciliation of a traced request, and the tail statistic.
// Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void ExpectNear(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12f, want %.12f\n", what, actual,
                 expected);
    ++g_failures;
  }
}

void ExpectTrue(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++g_failures;
  }
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, double start,
              double end, bool replay = false) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = 1;
  span.name = name;
  span.start_ms = start;
  span.end_ms = end;
  span.replay = replay;
  return span;
}

void SelfTimeSubtractsTheUnionOfChildren() {
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent; grandchildren only reduce their own parent.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "root", 0.0, 10.0),
      MakeSpan(2, 1, "a", 1.0, 4.0),
      MakeSpan(3, 1, "b", 3.0, 6.0),
      MakeSpan(4, 1, "c", 9.0, 12.0),
      MakeSpan(5, 2, "a1", 2.0, 3.0),
  };
  const std::vector<double> self = SelfTimes(spans);
  ExpectNear(self[0], 10.0 - 5.0 - 1.0, "root self time");
  ExpectNear(self[1], 3.0 - 1.0, "child self time");
  ExpectNear(self[2], 3.0, "leaf self time");
  ExpectNear(self[3], 3.0, "clipped leaf keeps its own duration");
  ExpectNear(self[4], 1.0, "grandchild self time");
}

std::vector<Span> TracedMiss() {
  // query = sketch + router + 0.1 ms of bookkeeping, then the marked
  // replay: two shard searches (8.5 ms), their in-process twins (5.5 ms),
  // probe 2.5 + estimate 2.5 + merge 0.1.
  return {
      MakeSpan(10, 0, "query", 0.0, 10.0),
      MakeSpan(11, 10, "sketch", 0.0, 2.0),
      MakeSpan(12, 10, "router", 2.0, 9.9),
      MakeSpan(20, 10, "replay", 11.0, 30.1, true),
      MakeSpan(21, 20, "shard", 11.0, 15.0, true),
      MakeSpan(22, 20, "shard", 15.0, 19.5, true),
      MakeSpan(23, 20, "local", 19.5, 22.0, true),
      MakeSpan(24, 20, "local", 22.0, 25.0, true),
      MakeSpan(25, 20, "probe", 25.0, 27.5, true),
      MakeSpan(26, 20, "estimate", 27.5, 30.0, true),
      MakeSpan(27, 20, "merge", 30.0, 30.1, true),
  };
}

void ReconcileSumsTheReplayedLayers() {
  const Reconciliation rec = Reconcile(TracedMiss());
  ExpectTrue(rec.queries == 1 && rec.replays == 1, "one query, one replay");
  // The replay lies after the query span: it must not cover query time.
  ExpectNear(rec.query_cover, 0.99, "sketch + router cover of the query");
  ExpectNear(rec.shard_cover, 8.5 / 7.9, "shard searches over router time");
  ExpectNear(rec.layer_cover, (2.5 + 2.5 + 0.1 + (8.5 - 5.5)) / 7.9,
             "replayed layers plus wire over router time");
  ExpectTrue(rec.Within(0.03, 0.35), "within the ledger's tolerances");
  ExpectTrue(!rec.Within(0.005, 0.35), "query tolerance is enforced");
  ExpectTrue(!rec.Within(0.03, 0.05), "replay tolerance is enforced");
}

void ReconcileWithoutLocalTwinsUsesLayersAlone() {
  std::vector<Span> spans = TracedMiss();
  spans.erase(spans.begin() + 6, spans.begin() + 8);  // drop the "local"s
  const Reconciliation rec = Reconcile(spans);
  ExpectNear(rec.layer_cover, (2.5 + 2.5 + 0.1) / 7.9,
             "in-process shards add no wire time");
}

void ReconcileFailsWithoutReplays() {
  std::vector<Span> spans = TracedMiss();
  spans.resize(3);
  const Reconciliation rec = Reconcile(spans);
  ExpectTrue(rec.queries == 1 && rec.replays == 0, "no replay recorded");
  ExpectTrue(!rec.Within(0.03, 0.35), "a run that replayed nothing fails");
}

void TailIsTheEleventhLargest() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(static_cast<double>(i));
  const Tail tail = TailOf(v);
  ExpectNear(tail.value, 190.0, "tail value");
  ExpectNear(tail.percentile, 95.0, "tail percentile");
  ExpectTrue(tail.beyond == 10, "ten samples beyond the tail");
  ExpectNear(Median(v), 100.5, "median interpolates");
  ExpectNear(TailOf({3.0, 1.0, 2.0}).value, 3.0, "short runs report the max");
  ExpectNear(Ratio(1.0, 0.0), 0.0, "a ratio over nothing is zero");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SelfTimeSubtractsTheUnionOfChildren();
  perfbench::ReconcileSumsTheReplayedLayers();
  perfbench::ReconcileWithoutLocalTwinsUsesLayersAlone();
  perfbench::ReconcileFailsWithoutReplays();
  perfbench::TailIsTheEleventhLargest();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("ledger_test: all expectations hold\n");
  return 0;
}
