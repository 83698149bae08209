//===- main.cpp - Charon end-to-end benchmark entry point -----------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench_charon --workload slate|deep|serve|cegar --seed N --seconds S
//                    --trace 0|1 --data DIR --worker PATH --root DIR
//                    [--tamper flip|cex]
//   perfbench_charon --prepare --data DIR          (train/load networks)
//   perfbench_charon --write-expected B --data DIR (re-derive pinned verdicts)
//
// The last line of standard output is the JSON result. The exit code is 0
// only when every gated verdict passed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options Opt;
  bool Prepare = false;
  double ExpectedBudget = 0.0;
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::cerr << "perfbench: " << Argv[I] << " needs a value\n";
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--workload"))
      Opt.Workload = Next();
    else if (!std::strcmp(Argv[I], "--seed"))
      Opt.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (!std::strcmp(Argv[I], "--seconds"))
      Opt.Seconds = std::atof(Next().c_str());
    else if (!std::strcmp(Argv[I], "--trace"))
      Opt.Trace = Next() == "1";
    else if (!std::strcmp(Argv[I], "--data"))
      Opt.DataDir = Next();
    else if (!std::strcmp(Argv[I], "--worker"))
      Opt.WorkerBinary = Next();
    else if (!std::strcmp(Argv[I], "--root"))
      Opt.RepoRoot = Next();
    else if (!std::strcmp(Argv[I], "--tamper"))
      Opt.Tamper = Next();
    else if (!std::strcmp(Argv[I], "--prepare"))
      Prepare = true;
    else if (!std::strcmp(Argv[I], "--write-expected"))
      ExpectedBudget = std::atof(Next().c_str());
    else {
      std::cerr << "perfbench: unknown argument " << Argv[I] << "\n";
      return 2;
    }
  }

  if (Prepare) {
    // Untimed: trains every network into the benchmark's cache once.
    (void)loadNetworks(Opt.DataDir);
    return 0;
  }
  if (ExpectedBudget > 0.0)
    return writeExpected(Opt, ExpectedBudget);

  int (*Run)(Options &, Report &) = nullptr;
  if (Opt.Workload == "slate")
    Run = runSlate;
  else if (Opt.Workload == "deep")
    Run = runDeep;
  else if (Opt.Workload == "serve")
    Run = runServe;
  else if (Opt.Workload == "cegar")
    Run = runCegar;
  if (!Run) {
    std::cerr << "perfbench: unknown workload '" << Opt.Workload << "'\n";
    return 2;
  }

#if defined(__GLIBC__)
  // As the repository's micro benches do: pin glibc's dynamic mmap/trim
  // thresholds so a leg's timings do not depend on what earlier legs
  // allocated and freed.
  mallopt(M_MMAP_THRESHOLD, 128 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
#endif
  printHostFacts();
  std::cout << "workload " << Opt.Workload << ", seed " << Opt.Seed
            << ", seconds " << Opt.Seconds << ", trace " << Opt.Trace << "\n";
  Report Rep;
  int Rc = Run(Opt, Rep);
  Rep.print();
  return Rc == 0 && Rep.failed() == 0 ? 0 : 1;
}
