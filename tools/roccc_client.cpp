// roccc-client — command-line client for the roccc-ccd daemon.
//
//   roccc-client [options] kernel.c [kernel2.c ...]   compile via the daemon
//   roccc-client --status|--metrics|--ping|--reload   admin requests
//   roccc-client --drain M                            drain (stop|pause|resume)
//
// Speaks `roccc-ccd-v1` over the daemon's AF_UNIX socket (docs/SERVICE.md).
// One input sends a `compile` request and writes <input>.vhd; several
// inputs send one `batch` request and write one .vhd each — the daemon
// guarantees the bytes match a local roccc-cc run of the same job.
//
// The options are listed by --help, generated from the option table
// below; docs/CLI.md is the full reference, kept in sync with --help by a
// CI test. Every --opt VALUE option also accepts the --opt=VALUE spelling.
//
// Exit codes: the roccc-cc outcome codes (0 ok, 1 frontend error, 2 usage,
// 3 timeout, 4 resource budget exceeded, 5 internal error) plus two
// service-edge codes: 6 transport/protocol failure (cannot connect, bad
// frame), 7 request rejected by the daemon (queue-full, draining,
// quota-exceeded, bad-request, ...).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "roccc/options.hpp"
#include "roccc/service_net.hpp"

namespace {

constexpr int kExitTransport = 6;
constexpr int kExitRejected = 7;

struct Args {
  std::string socketPath = "roccc-ccd.sock";
  std::vector<std::string> inputs;
  std::string output;
  std::string verilogPath;
  roccc::json::Value options = roccc::json::Value::object(); ///< the request's options
  roccc::CompileOptions compile; ///< scratch the compile-option flags parse into
  std::string drainMode; ///< empty = no drain request
  bool status = false;
  bool metrics = false;
  bool ping = false;
  bool reload = false;
  bool rawJson = false;
  bool quiet = false;
  bool showHelp = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] kernel.c [kernel2.c ...]\n"
               "       %s --status | --metrics | --ping | --reload | --drain M\n"
               "       %s --help for the option list (docs/CLI.md, docs/SERVICE.md)\n",
               argv0, argv0, argv0);
  return 2;
}

/// The option table; --help and the docs/CLI.md sync check are generated
/// from it. The compile options are the rows with both a flag and a
/// protocol key (roccc/options.hpp): each is checked here by the row's rule
/// and sent as the row's JSON value; the daemon clamps budgets to its
/// ceilings.
std::vector<roccc::cli::Option> optionTable(Args& a) {
  namespace cli = roccc::cli;
  using roccc::json::Value;
  std::vector<cli::Option> table = {
      cli::text("--socket", "PATH", "daemon socket path (default: roccc-ccd.sock)", a.socketPath),
      cli::text("-o", "FILE", "output VHDL path (single input only; default: <input>.vhd)",
                a.output),
      {"--verilog", "FILE", "also request and write the Verilog form (single input only)",
       [&a](const char* v) {
         a.verilogPath = v;
         a.options.set("verilog", Value::boolean(true));
         return true;
       }},
      cli::flag("--status", "print the daemon status response", a.status),
      cli::flag("--metrics", "print the live metrics response", a.metrics),
      cli::flag("--ping", "liveness check (expects a pong)", a.ping),
      cli::flag("--reload", "rebuild the daemon's cache over its directory", a.reload),
      {"--drain", "M", "drain the daemon: 'stop', 'pause' or 'resume'",
       [&a](const char* v) {
         const std::string_view m = v;
         if (m != "stop" && m != "pause" && m != "resume") return false;
         a.drainMode = v;
         return true;
       }},
      cli::flag("--json", "print raw JSON responses instead of writing files", a.rawJson),
      cli::flag("--quiet", "only errors", a.quiet),
      cli::flag("--help", "print this option list and exit", a.showHelp),
  };
  for (const roccc::OptionField& f : roccc::compileOptionFields()) {
    if (!f.flag || !f.jsonKey) continue;
    table.push_back({f.flag, f.valueName, f.help, [&a, &f](const char* v) {
                       if (!roccc::parseOptionArg(f, v, a.compile)) return false;
                       a.options.set(f.jsonKey, roccc::optionJson(f, a.compile));
                       return true;
                     }});
  }
  return table;
}

void printHelp(const char* argv0, const std::vector<roccc::cli::Option>& table) {
  std::printf("usage: %s [options] kernel.c [kernel2.c ...]\n\n"
              "Compiles C kernels through a running roccc-ccd daemon (byte-identical to\n"
              "roccc-cc). docs/CLI.md is the flag reference; docs/SERVICE.md the protocol.\n\n"
              "options:\n",
              argv0);
  roccc::cli::printOptions(table);
  std::printf("\nexit codes: 0 ok, 1 frontend error, 2 usage, 3 timeout,\n"
              "            4 resource budget exceeded, 5 internal error,\n"
              "            6 transport/protocol failure, 7 rejected by the daemon\n");
}

/// Maps a response row's `status` string back to a process exit code —
/// the roccc-cc outcome codes, plus 7 for service-edge rejections.
int exitCodeForStatus(const std::string& status) {
  if (status == "ok") return 0;
  if (status == "frontend-error") return 1;
  if (status == "timeout") return 3;
  if (status == "resource-exceeded") return 4;
  if (status == "internal-error") return 5;
  return kExitRejected;
}

std::string defaultOutputPath(const std::string& input) {
  std::string out = input;
  const size_t dot = out.rfind('.');
  const size_t slash = out.find_last_of('/');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) out.resize(dot);
  return out + ".vhd";
}

int transportError(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return kExitTransport;
}

/// Prints a typed daemon error response and returns the matching exit code.
int reportRejection(const roccc::json::Value& resp) {
  const roccc::json::Value* e = resp.find("error");
  const roccc::json::Value* code = e ? e->find("code") : nullptr;
  const roccc::json::Value* message = e ? e->find("message") : nullptr;
  std::fprintf(stderr, "daemon rejected the request (%s): %s\n",
               code && code->isString() ? code->asString().c_str() : "?",
               message && message->isString() ? message->asString().c_str() : "");
  return kExitRejected;
}

bool isError(const roccc::json::Value& resp) {
  const roccc::json::Value* type = resp.find("type");
  return !type || !type->isString() || type->asString() == "error";
}

void printDiags(const std::string& name, const roccc::json::Value& row) {
  const roccc::json::Value* diags = row.find("diags");
  if (!diags || !diags->isArray()) return;
  for (const auto& d : diags->items()) {
    if (d.isString()) std::fprintf(stderr, "%s: %s\n", name.c_str(), d.asString().c_str());
  }
}

/// Writes one compiled row's artifacts. Returns the row's exit code.
int consumeRow(const Args& a, const roccc::json::Value& row, const std::string& outputPath) {
  const roccc::json::Value* status = row.find("status");
  const roccc::json::Value* name = row.find("name");
  const std::string label = name && name->isString() ? name->asString() : "<job>";
  const std::string st = status && status->isString() ? status->asString() : "internal-error";
  if (st != "ok") {
    std::fprintf(stderr, "%s: %s\n", label.c_str(), st.c_str());
    printDiags(label, row);
    return exitCodeForStatus(st);
  }
  const roccc::json::Value* vhdl = row.find("vhdl");
  if (!vhdl || !vhdl->isString()) {
    std::fprintf(stderr, "%s: daemon response carries no VHDL\n", label.c_str());
    return kExitTransport;
  }
  std::ofstream out(outputPath);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", outputPath.c_str());
    return 1;
  }
  out << vhdl->asString();
  if (!a.verilogPath.empty()) {
    const roccc::json::Value* verilog = row.find("verilog");
    if (verilog && verilog->isString()) {
      std::ofstream vout(a.verilogPath);
      vout << verilog->asString();
    }
  }
  if (!a.quiet) {
    const roccc::json::Value* cached = row.find("cached");
    const roccc::json::Value* sha = row.find("sha256");
    std::printf("%-32s -> %s (%zu bytes%s, sha256 %.12s)\n", label.c_str(), outputPath.c_str(),
                vhdl->asString().size(), cached && cached->isBool() && cached->asBool() ? ", cached" : "",
                sha && sha->isString() ? sha->asString().c_str() : "?");
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  const std::vector<roccc::cli::Option> table = optionTable(a);
  const auto addInput = [&a](const char* path) {
    a.inputs.emplace_back(path);
    return true;
  };
  if (!roccc::cli::parse(argc, argv, table, addInput)) return usage(argv[0]);
  if (a.showHelp) {
    printHelp(argv[0], table);
    return 0;
  }
  const int adminOps = static_cast<int>(a.status) + static_cast<int>(a.metrics) +
                       static_cast<int>(a.ping) + static_cast<int>(a.reload) +
                       static_cast<int>(!a.drainMode.empty());
  if (adminOps > 1 || (adminOps == 1 && !a.inputs.empty()) ||
      (adminOps == 0 && a.inputs.empty())) {
    return usage(argv[0]);
  }
  if (a.inputs.size() > 1 && (!a.output.empty() || !a.verilogPath.empty())) {
    std::fprintf(stderr, "error: -o/--verilog are incompatible with multiple inputs\n");
    return 2;
  }

  roccc::ServiceClient client;
  std::string error;
  if (!client.connect(a.socketPath, error)) return transportError(error);

  using roccc::json::Value;
  if (adminOps == 1) {
    Value req = Value::object();
    req.set("type", Value::string(a.status    ? "status"
                                  : a.metrics ? "metrics"
                                  : a.ping    ? "ping"
                                  : a.reload  ? "reload"
                                              : "drain"));
    if (!a.drainMode.empty()) req.set("mode", Value::string(a.drainMode));
    Value resp;
    if (!client.request(req, resp, error)) return transportError(error);
    if (isError(resp)) return reportRejection(resp);
    std::printf("%s\n", resp.dump().c_str());
    return 0;
  }

  // Compile path: one input = `compile`, several = one `batch` request.
  std::vector<std::string> sources;
  for (const std::string& path : a.inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back(buf.str());
  }

  Value resp;
  if (a.inputs.size() == 1) {
    const Value req = roccc::makeCompileRequest(a.inputs[0], sources[0], a.options);
    if (!client.request(req, resp, error)) return transportError(error);
    if (a.rawJson) {
      std::printf("%s\n", resp.dump().c_str());
      return 0;
    }
    if (isError(resp)) return reportRejection(resp);
    return consumeRow(a, resp, a.output.empty() ? defaultOutputPath(a.inputs[0]) : a.output);
  }

  Value req = Value::object();
  req.set("type", Value::string("batch"));
  Value jobs = Value::array();
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    Value job = Value::object();
    job.set("name", Value::string(a.inputs[i]));
    job.set("source", Value::string(sources[i]));
    if (!a.options.members().empty()) job.set("options", a.options);
    jobs.push(std::move(job));
  }
  req.set("jobs", std::move(jobs));
  if (!client.request(req, resp, error)) return transportError(error);
  if (a.rawJson) {
    std::printf("%s\n", resp.dump().c_str());
    return 0;
  }
  if (isError(resp)) return reportRejection(resp);
  const Value* rows = resp.find("results");
  if (!rows || !rows->isArray() || rows->items().size() != a.inputs.size()) {
    return transportError("malformed batch-result response");
  }
  int firstFailureExit = 0;
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    const int code = consumeRow(a, rows->items()[i], defaultOutputPath(a.inputs[i]));
    if (code != 0 && firstFailureExit == 0) firstFailureExit = code;
  }
  if (!a.quiet) {
    const Value* ok = resp.find("ok");
    const Value* rejected = resp.find("rejected");
    const Value* wallMs = resp.find("wallMs");
    std::printf("batch: %lld/%zu ok, %lld rejected, %.1f ms daemon wall time\n",
                ok && ok->isNumber() ? static_cast<long long>(ok->asInt()) : -1, a.inputs.size(),
                rejected && rejected->isNumber() ? static_cast<long long>(rejected->asInt()) : -1,
                wallMs && wallMs->isNumber() ? wallMs->asDouble() : 0.0);
  }
  return firstFailureExit;
}
