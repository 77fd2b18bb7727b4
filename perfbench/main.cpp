// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench info                  build provenance as JSON
//   perfbench selftest              validator and wrapper self-tests
//   perfbench sut key=value...      one system-under-test process
//   perfbench gen key=value...      the load generator
//
// run.py launches and wires these; see README.md.
#include <cstdio>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "info") {
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("%s\n", perfbench::JsonObj()
                            .str("compiler", __VERSION__)
                            .str("build_type", PERFBENCH_BUILD_TYPE)
                            .num("optimized", optimized ? 1 : 0)
                            .str("sanitizer", sanitizer())
                            .done()
                            .c_str());
    return 0;
  }
  if (cmd == "selftest") return perfbench::run_selftest();
  const perfbench::Params p = perfbench::Params::parse(argc, argv, 2);
  if (cmd == "sut") return perfbench::sut_main(p);
  if (cmd == "gen") return perfbench::gen_main(p);
  std::fprintf(stderr, "usage: %s info|selftest|sut|gen [key=value...]\n",
               argv[0]);
  return 2;
}
