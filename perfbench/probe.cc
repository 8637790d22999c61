// perfbench_probe — the benchmark's compiled helper. run.py drives it; every
// subcommand reads and writes files in a run directory.
//
//   info                    build fingerprint (build type, sanitizer, NDEBUG)
//   gen    --out DIR --workload W --seed N --entities E --pages P
//          [--train N --dev N --requests N]
//          world files (kb/candidates/vocab/corpus .bin) plus requests.jsonl
//   oracle --data D --model M [--store_dir S] [--resident_budget_mb B]
//          --requests R --out E
//          expected entity ids per request, through InferenceEngine at
//          batch size 1 on the same deployment the server runs
//   load   --port P --requests R --expected E --rate X --seconds T --seed N
//          [--adds_per_s W --add_base K] [--health_every H] [--replies F]
//          --out F
//          open-loop Poisson load on 4 pipelined TCP connections
//   trace  --data D --model M --store_dir S --requests R --replies F
//          --rate X --seconds T --spans F --out F
//          times calls into each layer's public functions (see trace.cc)
#include "probe.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace pb = bootleg::perfbench;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe info|gen|oracle|load|trace ...\n");
    return 2;
  }
  const pb::Args args(argc, argv);
  const std::string cmd = argv[1];
  if (cmd == "info") return pb::CmdInfo();
  if (cmd == "gen") return pb::CmdGen(args);
  if (cmd == "oracle") return pb::CmdOracle(args);
  if (cmd == "load") return pb::CmdLoad(args);
  if (cmd == "trace") return pb::CmdTrace(args);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
