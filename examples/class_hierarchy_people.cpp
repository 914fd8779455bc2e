// Examples 2.3 / 2.4 from the paper: the Person / Professor / Student /
// Assistant-Professor hierarchy, indexed by income.
//
// Demonstrates label-class (Fig. 4), the Theorem 2.6 index, the §2.2
// baselines, and the Theorem 4.7 rake-and-contract index answering the
// same full-extent queries, with per-query I/O counts.
//
// Build & run:   ./build/examples/class_hierarchy_people

#include <algorithm>
#include <cstdio>
#include <random>

#include "ccidx/classes/baselines.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/metablock_tree.h"

using namespace ccidx;

int main() {
  // Example 2.3 hierarchy.
  ClassHierarchy h;
  uint32_t person = *h.AddClass("Person");
  uint32_t student = *h.AddClass("Student", person);
  uint32_t professor = *h.AddClass("Professor", person);
  uint32_t asst_prof = *h.AddClass("AsstProf", professor);
  if (!h.Freeze().ok()) return 1;

  std::printf("label-class assignment (Fig. 5):\n");
  for (uint32_t c : {person, student, professor, asst_prof}) {
    auto [lo, hi] = h.range(c);
    std::printf("  %-10s label=%-5s range=[%s, %s)\n", h.name(c).c_str(),
                h.label(c).ToString().c_str(), lo.ToString().c_str(),
                hi.ToString().c_str());
  }

  // A population with incomes; students earn little, professors more.
  std::mt19937 rng(7);
  std::vector<Object> people;
  auto add = [&](uint32_t cls, Coord base, Coord spread, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      people.push_back({people.size(), cls,
                        base + static_cast<Coord>(rng() % spread)});
    }
  };
  add(person, 20000, 80000, 4000);
  add(student, 5000, 15000, 3000);
  add(professor, 60000, 60000, 2000);
  add(asst_prof, 50000, 30000, 1000);

  BlockDevice device(PageSizeForBranching(32));
  Pager pager(&device, 0);
  SimpleClassIndex simple(&pager, &h);
  SingleIndexBaseline single(&pager, &h);
  FullExtentIndex full(&pager, &h);
  for (const Object& o : people) {
    if (!simple.Insert(o).ok() || !single.Insert(o).ok() ||
        !full.Insert(o).ok()) {
      return 1;
    }
  }
  auto rc = RakeContractIndex::Build(&pager, &h, people);
  if (!rc.ok()) return 1;

  // Example 2.4: professors (full extent) with income in [85k, 86k] — and
  // a couple more plans.
  struct Q {
    const char* text;
    uint32_t cls;
    Coord a1, a2;
  };
  Q queries[] = {
      {"Professor income [85000, 86000]", professor, 85000, 86000},
      {"Person income [100000, 101000]", person, 100000, 101000},
      {"Student income [8000, 12000]", student, 8000, 12000},
  };
  std::printf("\n%-36s %10s %8s %8s %8s %8s\n", "query", "results",
              "Thm2.6", "single", "fullext", "Thm4.7");
  for (const Q& q : queries) {
    auto run = [&](auto&& fn) -> std::pair<size_t, uint64_t> {
      device.ResetStats();
      std::vector<uint64_t> out;
      VectorSink<uint64_t> sink(&out);
      if (!fn(&sink).ok()) std::exit(1);
      return {out.size(), device.stats().TotalIos()};
    };
    auto [t1, io1] = run([&](ResultSink<uint64_t>* sink) {
      return simple.Query(q.cls, q.a1, q.a2, sink);
    });
    auto [t2, io2] = run([&](ResultSink<uint64_t>* sink) {
      return single.Query(q.cls, q.a1, q.a2, sink);
    });
    auto [t3, io3] = run([&](ResultSink<uint64_t>* sink) {
      return full.Query(q.cls, q.a1, q.a2, sink);
    });
    auto [t4, io4] = run([&](ResultSink<uint64_t>* sink) {
      return rc->Query(q.cls, q.a1, q.a2, sink);
    });
    if (t1 != t2 || t2 != t3 || t3 != t4) {
      std::fprintf(stderr, "result mismatch!\n");
      return 1;
    }
    std::printf("%-36s %10zu %8llu %8llu %8llu %8llu\n", q.text, t1,
                static_cast<unsigned long long>(io1),
                static_cast<unsigned long long>(io2),
                static_cast<unsigned long long>(io3),
                static_cast<unsigned long long>(io4));
  }
  std::printf("\n(I/O columns: Theorem 2.6 range-tree, single-B+-tree filter "
              "baseline,\n full-extent-per-class baseline, Theorem 4.7 "
              "rake-and-contract.)\n");
  return 0;
}
