// Verbs protocol checker: replays a join configuration with a
// ProtocolValidator attached to every RDMA device, queue pair, completion
// queue and buffer pool, and prints the protocol-violation report.
//
//   rdmajoin_check --cluster=qdr --machines=8 --inner=2048 --outer=2048
//   rdmajoin_check --operator=sortmerge --transport=memory
//   rdmajoin_check --mode=strict   # fail on the first violation
//
// Exit status: 0 if the replay is violation-free, 2 if violations were
// detected, 1 on configuration or execution errors.

#include <cstdio>
#include <cstring>
#include <string>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"
#include "rdma/validator.h"
#include "util/flags.h"
#include "workload/generator.h"

namespace {

using namespace rdmajoin;

struct CheckOptions {
  std::string cluster = "qdr";
  uint32_t machines = 4;
  uint32_t cores = 8;
  std::string op = "hashjoin";  // hashjoin | sortmerge | aggregate
  double inner_mtuples = 256;
  double outer_mtuples = 256;
  uint32_t tuple_bytes = 16;
  double zipf = 0.0;
  double scale_up = 1024.0;
  std::string assignment = "rr";  // rr | skew
  std::string transport;          // "", channel | memory | read | tcp
  std::string mode = "report";    // report | strict
  bool preregister = true;
  uint64_t seed = 42;
};

void PrintUsage() {
  std::printf(
      "rdmajoin_check -- verbs protocol validator: replays a join and reports\n"
      "contract violations (use-after-deregister, out-of-bounds work requests,\n"
      "unposted receives, buffer double-release/leaks, CQ overflows, region\n"
      "leaks at device teardown).\n\n"
      "  --cluster=qdr|fdr|qpi|ipoib   hardware preset (default qdr)\n"
      "  --machines=N                  machines / sockets (default 4)\n"
      "  --cores=N                     cores per machine (default 8)\n"
      "  --operator=hashjoin|sortmerge|aggregate (default hashjoin)\n"
      "  --inner=M --outer=M           relation sizes, millions of tuples\n"
      "  --width=16|32|64              tuple bytes (default 16)\n"
      "  --zipf=THETA                  outer-key skew (default uniform)\n"
      "  --scale=N                     simulation scale-up (default 1024)\n"
      "  --assignment=rr|skew          partition-machine assignment\n"
      "  --transport=channel|memory|read|tcp  override the preset's transport\n"
      "  --register-on-demand          disable the preregistered buffer pool\n"
      "  --mode=report|strict          report: replay everything and print the\n"
      "                                report; strict: fail on first violation\n"
      "  --seed=N                      workload RNG seed\n\n"
      "exit status: 0 clean, 2 violations detected, 1 error\n");
}

bool ParseArgs(int argc, char** argv, CheckOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (arg.compare(0, len, name) == 0 && arg.size() > len && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    } else if (const char* v = value("--cluster")) {
      opt->cluster = v;
    } else if (const char* v = value("--machines")) {
      if (!ParseCountValue(v, &opt->machines)) return InvalidFlagValue(arg, false);
    } else if (const char* v = value("--cores")) {
      if (!ParseCountValue(v, &opt->cores)) return InvalidFlagValue(arg, false);
    } else if (const char* v = value("--operator")) {
      opt->op = v;
    } else if (const char* v = value("--inner")) {
      if (!ParseNonNegativeValue(v, &opt->inner_mtuples)) {
        return InvalidFlagValue(arg, false);
      }
    } else if (const char* v = value("--outer")) {
      if (!ParseNonNegativeValue(v, &opt->outer_mtuples)) {
        return InvalidFlagValue(arg, false);
      }
    } else if (const char* v = value("--width")) {
      if (!ParseCountValue(v, &opt->tuple_bytes)) return InvalidFlagValue(arg, false);
    } else if (const char* v = value("--zipf")) {
      if (!ParseNonNegativeValue(v, &opt->zipf)) return InvalidFlagValue(arg, false);
    } else if (const char* v = value("--scale")) {
      if (!ParsePositiveValue(v, &opt->scale_up)) return InvalidFlagValue(arg, false);
    } else if (const char* v = value("--assignment")) {
      opt->assignment = v;
    } else if (const char* v = value("--transport")) {
      opt->transport = v;
    } else if (const char* v = value("--mode")) {
      opt->mode = v;
    } else if (arg == "--register-on-demand") {
      opt->preregister = false;
    } else if (const char* v = value("--seed")) {
      if (!ParseU64Value(v, &opt->seed)) return InvalidFlagValue(arg, false);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CheckOptions opt;
  if (!ParseArgs(argc, argv, &opt)) return 1;

  auto preset = ClusterPresetByName(opt.cluster, opt.machines, opt.cores);
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().message().c_str());
    return 1;
  }
  ClusterConfig cluster = std::move(*preset);
  if (!opt.transport.empty()) {
    auto transport = TransportKindByName(opt.transport);
    if (!transport.ok()) {
      std::fprintf(stderr, "%s\n", transport.status().message().c_str());
      return 1;
    }
    cluster.transport = *transport;
  }

  ProtocolValidator::Mode mode;
  if (opt.mode == "report") {
    mode = ProtocolValidator::Mode::kReport;
  } else if (opt.mode == "strict") {
    mode = ProtocolValidator::Mode::kStrict;
  } else {
    std::fprintf(stderr, "unknown mode: %s (expected report|strict)\n",
                 opt.mode.c_str());
    return 1;
  }
  ProtocolValidator validator(mode);

  WorkloadSpec spec;
  spec.inner_tuples = static_cast<uint64_t>(opt.inner_mtuples * 1e6 / opt.scale_up);
  spec.outer_tuples = static_cast<uint64_t>(opt.outer_mtuples * 1e6 / opt.scale_up);
  spec.tuple_bytes = opt.tuple_bytes;
  spec.zipf_theta = opt.zipf;
  spec.seed = opt.seed;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  if (!workload.ok()) return Fail(workload.status());

  JoinConfig config;
  config.scale_up = opt.scale_up;
  config.assignment = opt.assignment == "skew" ? AssignmentPolicy::kSkewAware
                                               : AssignmentPolicy::kRoundRobin;
  config.preregister_buffers = opt.preregister;
  config.validator = &validator;

  std::string verified = "n/a";
  if (opt.op == "hashjoin" || opt.op == "sortmerge") {
    StatusOr<JoinRunResult> result =
        opt.op == "hashjoin"
            ? DistributedJoin(cluster, config).Run(workload->inner, workload->outer)
            : DistributedSortMergeJoin(cluster, config)
                  .Run(workload->inner, workload->outer);
    if (!result.ok()) {
      // In strict mode a violation aborts the run with an error Status; the
      // report below still names it. Other errors are fatal.
      if (validator.total_violations() == 0) return Fail(result.status());
      std::fprintf(stderr, "replay aborted: %s\n",
                   result.status().ToString().c_str());
    } else {
      verified = result->stats.matches == workload->truth.expected_matches &&
                         result->stats.key_sum == workload->truth.expected_key_sum
                     ? "yes"
                     : "NO";
    }
  } else if (opt.op == "aggregate") {
    auto result = DistributedAggregate(cluster, config).Run(workload->outer);
    if (!result.ok()) {
      if (validator.total_violations() == 0) return Fail(result.status());
      std::fprintf(stderr, "replay aborted: %s\n",
                   result.status().ToString().c_str());
    } else {
      verified = result->stats.total_count == spec.outer_tuples ? "yes" : "NO";
    }
  } else {
    std::fprintf(stderr, "unknown operator: %s\n", opt.op.c_str());
    return 1;
  }

  std::printf("%s, %s, %s mode -- result verified: %s\n", cluster.name.c_str(),
              opt.op.c_str(), opt.mode.c_str(), verified.c_str());
  std::fputs(validator.report().ToString().c_str(), stdout);
  return validator.total_violations() == 0 ? 0 : 2;
}
