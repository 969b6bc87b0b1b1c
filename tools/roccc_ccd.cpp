// roccc-ccd — the compile-as-a-service daemon.
//
//   roccc-ccd [options]
//
// Binds an AF_UNIX socket and serves `roccc-ccd-v1` (line-delimited JSON;
// docs/SERVICE.md is the operations book) until a client sends `drain` or
// the process receives SIGTERM/SIGINT. Compiles run on a shared worker
// pool behind a bounded admission window; the optional content-addressed
// compile cache is shared by every client and, with --cache-dir, by every
// daemon generation.
//
// The options are listed by --help, generated from the option table
// below; docs/CLI.md is the full reference, kept in sync with --help by a
// CI test. Every --opt VALUE option also accepts the --opt=VALUE spelling.
//
// Exit codes: 0 clean drain/stop, 1 startup failure, 2 usage.
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "roccc/options.hpp"
#include "roccc/service_net.hpp"

namespace {

struct Args {
  roccc::ServiceConfig cfg;
  std::string timingModelPath;
  bool showHelp = false;
  Args() { cfg.quiet = false; }
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "       %s --help for the option list (docs/CLI.md, docs/SERVICE.md)\n",
               argv0, argv0);
  return 2;
}

/// The option table; --help and the docs/CLI.md sync check are generated
/// from it. --target-ns is the compile-option row (the server default);
/// the budget flags set ceilings, not per-job budgets.
std::vector<roccc::cli::Option> optionTable(Args& a) {
  namespace cli = roccc::cli;
  return {
      cli::text("--socket", "PATH", "socket path to bind (default: roccc-ccd.sock)",
                a.cfg.socketPath),
      cli::integer("--jobs", "N", "compile workers (0 = one per hardware thread)", a.cfg.workers,
                   0),
      cli::integer("--queue", "N",
                   "admission window: max in-flight jobs across all clients (default 256)",
                   a.cfg.maxQueue, 1),
      cli::integer("--max-client-jobs", "N", "per-connection in-flight job quota (default 64)",
                   a.cfg.maxClientJobs, 1),
      cli::integer("--max-request-bytes", "N", "per-request frame cap in bytes (default 8 MiB)",
                   a.cfg.maxRequestBytes, 64),
      cli::flag("--cache", "enable the shared content-addressed compile cache",
                a.cfg.cacheEnabled),
      {"--cache-dir", "DIR", "persistent on-disk cache tier in DIR (implies --cache)",
       [&a](const char* v) {
         a.cfg.cacheEnabled = true;
         a.cfg.cache.diskDir = v;
         return true;
       }},
      {"--cache-bytes", "N", "in-memory cache byte budget (implies --cache)",
       [&a](const char* v) {
         a.cfg.cacheEnabled = true;
         return cli::parseInt(v, 1, INT64_MAX, a.cfg.cache.maxBytes);
       }},
      cli::integer("--timeout-ms", "N", "ceiling on per-job wall-clock budgets (0 = none)",
                   a.cfg.budgetCeiling.timeoutMs, 0),
      cli::integer("--max-ir-nodes", "N", "ceiling on per-job IR-node budgets (0 = none)",
                   a.cfg.budgetCeiling.maxIrNodes, 0),
      cli::integer("--max-unroll-product", "N",
                   "ceiling on per-job unroll-product budgets (0 = none)",
                   a.cfg.budgetCeiling.maxUnrollProduct, 0),
      cli::integer("--max-depth", "N", "ceiling on per-job nesting-depth budgets (0 = none)",
                   a.cfg.budgetCeiling.maxDepth, 0),
      roccc::cliOption(*roccc::findOptionByFlag("--target-ns"), a.cfg.baseOptions),
      cli::text("--timing-model", "FILE",
                "server default timing model table (docs/SYNTHESIS.md format)", a.timingModelPath),
      cli::flag("--quiet", "suppress lifecycle log lines", a.cfg.quiet),
      cli::flag("--help", "print this option list and exit", a.showHelp),
  };
}

void printHelp(const char* argv0, const std::vector<roccc::cli::Option>& table) {
  std::printf("usage: %s [options]\n\n"
              "Serves compile requests over an AF_UNIX socket (protocol roccc-ccd-v1).\n"
              "docs/CLI.md is the flag reference; docs/SERVICE.md the operations book.\n\n"
              "options:\n",
              argv0);
  roccc::cli::printOptions(table);
  std::printf("\nexit codes: 0 clean drain/stop, 1 startup failure, 2 usage\n");
}

// SIGTERM/SIGINT drain the daemon instead of killing it mid-compile.
// requestDrain() is async-signal-safe (atomic stores + a pipe write).
roccc::ServiceDaemon* g_daemon = nullptr;

void onSignal(int) {
  if (g_daemon) g_daemon->requestDrain();
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  const std::vector<roccc::cli::Option> table = optionTable(a);
  // No positional arguments.
  if (!roccc::cli::parse(argc, argv, table, [](const char*) { return false; })) {
    return usage(argv[0]);
  }
  if (a.showHelp) {
    printHelp(argv[0], table);
    return 0;
  }
  // Like roccc-cc: the timing model's *contents* become part of the base
  // options (and so of every cache key), parse-validated once up front.
  if (!a.timingModelPath.empty()) {
    roccc::synth::TimingModel model;
    std::string error;
    if (!roccc::loadTimingModel(a.timingModelPath, a.cfg.baseOptions.timingModelSpec, model,
                                error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }

  roccc::ServiceDaemon daemon(a.cfg);
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_daemon = &daemon;
  struct sigaction sa {};
  sa.sa_handler = onSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  daemon.waitStopped();
  g_daemon = nullptr;
  return 0;
}
