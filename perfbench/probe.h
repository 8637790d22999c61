#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "serve/inference_engine.h"

namespace bootleg::perfbench {

/// `--flag value` / `--flag=value` parser for the probe's subcommands.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key = arg.substr(2);
      const size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc) {
        values_[key] = argv[++i];
      }
    }
  }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  int64_t Int(const std::string& key, int64_t def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }
  double Num(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Reads a file as lines (no trailing newline); exits the process on error.
std::vector<std::string> ReadLines(const std::string& path);
/// JSON string literal for `s` (quotes included).
std::string Quote(const std::string& s);

/// EngineOptions of a deployment from --data/--model/--store_dir/
/// --resident_budget_mb, as bootleg_serve builds them from the same flags.
serve::EngineOptions DeploymentOptions(const Args& args);

int CmdInfo();
int CmdGen(const Args& args);
int CmdOracle(const Args& args);
int CmdLoad(const Args& args);
int CmdTrace(const Args& args);

}  // namespace bootleg::perfbench

#endif  // PERFBENCH_PROBE_H_
