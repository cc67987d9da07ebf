// Self-test of the recording decorator: one deterministic pass of each
// workload over real runtimes, with and without the decorator, must send
// the same number of messages and bytes and reach the same verdicts. This
// is what lets the traced run stand for the program the untraced run
// measures.
#include <iostream>

#include "common.hpp"

namespace perfbench {

int run_selftest(std::uint64_t seed) {
  struct Case {
    const char* name;
    Fingerprint (*run)(std::uint64_t, bool);
  };
  int failures = 0;
  for (const Case& c : {Case{"warm_stream", fingerprint_warm_stream},
                        Case{"first_contact", fingerprint_first_contact}}) {
    const Fingerprint plain = c.run(seed, false);
    const Fingerprint recorded = c.run(seed, true);
    const bool same = plain.messages == recorded.messages && plain.bytes == recorded.bytes &&
                      plain.verdicts == recorded.verdicts;
    std::cout << c.name << ": messages " << plain.messages << " / " << recorded.messages
              << ", bytes " << plain.bytes << " / " << recorded.bytes << ", verdicts "
              << plain.verdicts.size() << " / " << recorded.verdicts.size()
              << (same ? "  identical\n" : "  DIFFERENT\n");
    if (!same || plain.verdicts.empty()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
